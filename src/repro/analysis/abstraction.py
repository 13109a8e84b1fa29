"""Counter abstraction for parameterized script families.

This module turns a script whose role-family bounds depend on a size
constant (``ROLE worker [i:1..n]`` with ``CONST n = ...``) into a finite
abstract transition system that is faithful for **every** family size at
or above a floor:

* every role body is compiled to a flat instruction list (:class:`Code`)
  with explicit jumps — the canonical, hashable control representation
  the explorer in :mod:`repro.analysis.param` walks;
* data is abstracted: literals stay themselves, role parameters become
  :class:`Atom` values (assumed distinct from every message literal — the
  *sentinel-freedom* assumption, DESIGN.md §16), and anything else is
  :data:`TOP`, which branches explore both ways;
* each parametric family is split into *boundary* members (concretely
  indexed from below, symbolically ``n - j`` from above — folded with the
  affine forms of :mod:`repro.analysis.graph`), one tracked *interior*
  member, and a per-location **counter** over the remaining interior
  members with the classic ``{0, 1, >=2}`` cutoff domain;
* the counted-foreach idiom (``c := 0; DO [j = 1..n] c < n; <comm with
  family[j]> -> c := c + 1 OD``) is recognized and compiled to a single
  :class:`ISyncEach` instruction whose exit is *positional* ("every
  member is past its rendezvous site"), which is exact when the member
  site passes exactly once (:func:`passes_once` over the member's
  :class:`Code`).

Families are classified before abstraction: ``symmetric`` families (no
relative ``i +- c`` partners) get the counter abstraction; ``ring``
families (unidirectional ``i +- 1`` chains with boundary closure) are
verified concretely up to a structural cutoff; anything else raises
:class:`Unsupported`, which the analyzer reports as SCR012 rather than
guessing.
"""

from __future__ import annotations

import dataclasses

from ..lang import ast_nodes as ast
from ..lang.analysis import ProgramInfo, analyze
from .graph import Affine, affine_compare, replicator_bindings, static_int

# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


class _Top:
    """The unknown value: comparisons branch, arithmetic stays unknown."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TOP"


class _Unfilled:
    """The engine's distinguished value for a rendezvous with an absent
    partner; unequal to every literal and every parameter atom."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNFILLED"


TOP = _Top()
UNFILLED = _Unfilled()


@dataclasses.dataclass(frozen=True, slots=True)
class Atom:
    """The opaque value of one role parameter.

    Rendered as ``<role.param>`` — which is also the literal string the
    witness replayer passes as the concrete parameter value, so the
    sentinel-freedom assumption (atoms differ from every message literal)
    holds by construction in every replay.
    """

    role: str
    param: str

    def __repr__(self) -> str:
        return f"<{self.role}.{self.param}>"


@dataclasses.dataclass(frozen=True, slots=True)
class Interior:
    """The index of a generic interior family member: any value in
    ``[low, high]`` (affine bounds over the size parameter)."""

    low: Affine
    high: Affine

    def __repr__(self) -> str:
        return "INTERIOR"


def interval_compare(op: str, low: Affine, high: Affine, other: Affine,
                     floor: int) -> bool | None:
    """Decide ``i <op> other`` uniformly for every ``i`` in ``[low, high]``
    and every ``N >= floor``; ``None`` when the outcome varies."""
    if isinstance(other, int) and not isinstance(other, bool):
        other = Affine(0, other)
    if op == "=":
        below = affine_compare("<", high, other, floor)
        above = affine_compare(">", low, other, floor)
        if below or above:
            return False
        single = affine_compare("=", low, high, floor)
        if single and affine_compare("=", low, other, floor):
            return True
        return None
    if op == "<>":
        result = interval_compare("=", low, high, other, floor)
        return None if result is None else not result
    if op == "<":
        if affine_compare("<", high, other, floor):
            return True
        if affine_compare(">=", low, other, floor):
            return False
        return None
    if op == "<=":
        if affine_compare("<=", high, other, floor):
            return True
        if affine_compare(">", low, other, floor):
            return False
        return None
    if op == ">":
        result = interval_compare("<=", low, high, other, floor)
        return None if result is None else not result
    if op == ">=":
        result = interval_compare("<", low, high, other, floor)
        return None if result is None else not result
    return None


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class IAssign:
    target: ast.Designator
    value: ast.Expr
    line: int


@dataclasses.dataclass(frozen=True, slots=True)
class ISend:
    ref: ast.RoleRef
    value: ast.Expr
    line: int


@dataclasses.dataclass(frozen=True, slots=True)
class IRecv:
    target: ast.Designator
    ref: ast.RoleRef
    line: int


@dataclasses.dataclass(frozen=True, slots=True)
class IJump:
    to: int


@dataclasses.dataclass(frozen=True, slots=True)
class IBranch:
    """Fall through when the condition holds; jump to ``orelse`` when not."""

    cond: ast.Expr
    orelse: int
    line: int


@dataclasses.dataclass(frozen=True, slots=True)
class DoArm:
    """One instantiated guarded-DO arm."""

    cond: ast.Expr | None
    comm: ast.SendStmt | ast.ReceiveStmt | None
    body: int                       # pc of the arm body (ends jumping back)
    binding: tuple[tuple[str, int], ...] = ()   # unrolled replicator value


@dataclasses.dataclass(frozen=True, slots=True)
class IDoHead:
    arms: tuple[DoArm, ...]
    exit: int
    line: int


@dataclasses.dataclass(frozen=True, slots=True)
class ISyncEach:
    """One rendezvous with *every* member of a parametric family.

    ``kind`` is the owner's side (``recv``: collect from each member;
    ``send``: deliver to each member).  ``comm`` is the owner's original
    communication statement (value expression / receive target).  The
    instruction exits when every family member is past its unique
    complementary site — see DESIGN.md §16 for why that equals the
    counted loop's ``c = n`` exit.
    """

    family: str
    kind: str
    comm: ast.SendStmt | ast.ReceiveStmt
    line: int


@dataclasses.dataclass(frozen=True, slots=True)
class IHalt:
    pass


Instr = (IAssign, ISend, IRecv, IJump, IBranch, IDoHead, ISyncEach, IHalt)


@dataclasses.dataclass
class Code:
    """A compiled role body."""

    role: str
    instrs: list

    def succs(self, pc: int) -> list[int]:
        instr = self.instrs[pc]
        if isinstance(instr, IHalt):
            return []
        if isinstance(instr, IJump):
            return [instr.to]
        if isinstance(instr, IBranch):
            return [pc + 1, instr.orelse]
        if isinstance(instr, IDoHead):
            return [arm.body for arm in instr.arms] + [instr.exit]
        return [pc + 1]

    def reaches(self, target: int) -> frozenset[int]:
        """The pcs from which ``target`` is reachable (including itself)."""
        # Reverse reachability over the instruction graph.
        preds: dict[int, list[int]] = {i: [] for i in range(len(self.instrs))}
        for pc in range(len(self.instrs)):
            for succ in self.succs(pc):
                preds[succ].append(pc)
        seen = {target}
        stack = [target]
        while stack:
            node = stack.pop()
            for pred in preds[node]:
                if pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        return frozenset(seen)


class Unsupported(Exception):
    """The script is outside the abstraction's sound fragment (SCR012)."""


# ---------------------------------------------------------------------------
# Counted-foreach recognition
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class Foreach:
    """A recognized counted-foreach: ``init`` assign + ``do`` loop."""

    counter: str
    family: str
    kind: str                     # the owner's side: "send" | "recv"
    comm: ast.SendStmt | ast.ReceiveStmt


def _expr_names(expr: ast.Expr | None, into: set[str]) -> None:
    into.update(node.ident for node in ast.subexpressions(expr)
                if isinstance(node, ast.Name))


def _same_expr(a: ast.Expr, b: ast.Expr) -> bool:
    """Structural equality ignoring source lines."""
    if type(a) is not type(b):
        return False
    if isinstance(a, ast.Num):
        return a.value == b.value
    if isinstance(a, ast.Name):
        return a.ident == b.ident
    if isinstance(a, ast.Binary):
        return (a.op == b.op and _same_expr(a.left, b.left)
                and _same_expr(a.right, b.right))
    if isinstance(a, ast.Unary):
        return a.op == b.op and _same_expr(a.operand, b.operand)
    return False


def match_foreach(init: ast.Stmt, loop: ast.Stmt,
                  family: ast.RoleDeclNode) -> Foreach | None:
    """Match the counted-foreach idiom against ``init; loop``.

    The shape is strict by design — anything looser falls back to
    :class:`Unsupported` (SCR012) instead of an unsound abstraction::

        c := 0;
        DO [j = <family.low>..<family.high>]
          c < <family.high>; <SEND .. TO family[j] | RECEIVE .. FROM family[j]>
            -> c := c + 1
        OD
    """
    if not (isinstance(init, ast.Assign) and isinstance(init.target, ast.Name)
            and isinstance(init.value, ast.Num) and init.value.value == 0):
        return None
    if not isinstance(loop, ast.GuardedDo) or loop.replicator is None:
        return None
    counter = init.target.ident
    var, low, high = loop.replicator
    if not (_same_expr(low, family.index_low)
            and _same_expr(high, family.index_high)):
        return None
    if len(loop.arms) != 1:
        return None
    arm = loop.arms[0]
    if arm.comm is None or arm.condition is None:
        return None
    cond = arm.condition
    if not (isinstance(cond, ast.Binary) and cond.op in ("<", "<>")
            and isinstance(cond.left, ast.Name)
            and cond.left.ident == counter
            and _same_expr(cond.right, family.index_high)):
        return None
    if len(arm.body) != 1:
        return None
    step = arm.body[0]
    if not (isinstance(step, ast.Assign)
            and isinstance(step.target, ast.Name)
            and step.target.ident == counter
            and isinstance(step.value, ast.Binary) and step.value.op == "+"
            and isinstance(step.value.left, ast.Name)
            and step.value.left.ident == counter
            and isinstance(step.value.right, ast.Num)
            and step.value.right.value == 1):
        return None
    ref = arm.comm.partner
    if ref.name != family.name or not isinstance(ref.index, ast.Name) \
            or ref.index.ident != var:
        return None
    return Foreach(counter=counter, family=family.name, kind=arm.comm.kind,
                   comm=arm.comm)


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


class _Compiler:
    """Compile one role body to a :class:`Code` instruction list.

    ``foreach_families`` maps family name -> :class:`~repro.lang.ast_nodes.
    RoleDeclNode` for the parametric families whose counted-foreach loops
    must become :class:`ISyncEach` (abstract mode); empty in concrete
    mode, where replicators unroll against ``bounds``.
    """

    def __init__(self, role: ast.RoleDeclNode,
                 constants: dict[str, int],
                 foreach_families: dict[str, ast.RoleDeclNode],
                 concrete_replicators: bool):
        self.role = role
        self.constants = constants
        self.foreach_families = foreach_families
        self.concrete_replicators = concrete_replicators
        self.instrs: list = []
        self.elided: set[str] = set()

    def compile(self) -> Code:
        self._stmts(self.role.body)
        self.instrs.append(IHalt())
        self._check_elided()
        return Code(role=self.role.name, instrs=self.instrs)

    # -- helpers ------------------------------------------------------------

    def _emit(self, instr) -> int:
        self.instrs.append(instr)
        return len(self.instrs) - 1

    def _stmts(self, stmts: tuple[ast.Stmt, ...]) -> None:
        index = 0
        while index < len(stmts):
            stmt = stmts[index]
            following = stmts[index + 1] if index + 1 < len(stmts) else None
            if (self.foreach_families and following is not None
                    and isinstance(stmt, ast.Assign)
                    and isinstance(following, ast.GuardedDo)):
                foreach = self._try_foreach(stmt, following)
                if foreach is not None:
                    self._emit(ISyncEach(
                        family=foreach.family, kind=foreach.kind,
                        comm=foreach.comm, line=following.line))
                    self.elided.add(foreach.counter)
                    index += 2
                    continue
            self._stmt(stmt)
            index += 1

    def _try_foreach(self, init: ast.Stmt, loop: ast.Stmt) -> Foreach | None:
        for family in self.foreach_families.values():
            foreach = match_foreach(init, loop, family)
            if foreach is not None:
                # The count runs 0..high, so it must equal the family
                # size: the low bound has to be 1 or the concrete loop
                # would demand more rendezvous than there are members.
                if static_int(family.index_low, self.constants, {}) != 1:
                    raise Unsupported(
                        f"counted foreach over {family.name!r}: family "
                        f"low bound must be 1")
                return foreach
        return None

    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._emit(IAssign(stmt.target, stmt.value, stmt.line))
        elif isinstance(stmt, ast.SendStmt):
            self._emit(ISend(stmt.target, stmt.value, stmt.line))
        elif isinstance(stmt, ast.ReceiveStmt):
            self._emit(IRecv(stmt.target, stmt.source, stmt.line))
        elif isinstance(stmt, ast.SkipStmt):
            pass
        elif isinstance(stmt, ast.IfStmt):
            branch_at = self._emit(IBranch(stmt.condition, -1, stmt.line))
            self._stmts(stmt.then_body)
            if stmt.else_body is not None:
                jump_at = self._emit(IJump(-1))
                else_pc = len(self.instrs)
                self._stmts(stmt.else_body)
                end = len(self.instrs)
                self.instrs[branch_at] = dataclasses.replace(
                    self.instrs[branch_at], orelse=else_pc)
                self.instrs[jump_at] = IJump(end)
            else:
                end = len(self.instrs)
                self.instrs[branch_at] = dataclasses.replace(
                    self.instrs[branch_at], orelse=end)
        elif isinstance(stmt, ast.GuardedDo):
            self._do(stmt)
        else:  # pragma: no cover - parser produces no other nodes
            raise Unsupported(f"unknown statement {stmt!r}")

    def _do(self, stmt: ast.GuardedDo) -> None:
        bindings: list[tuple[tuple[str, int], ...]] = [()]
        if stmt.replicator is not None:
            var, low_expr, high_expr = stmt.replicator
            low = static_int(low_expr, self.constants, {})
            high = static_int(high_expr, self.constants, {})
            if low is None or high is None:
                raise Unsupported(
                    f"line {stmt.line}: replicated DO bounds do not fold "
                    f"to constants and the loop is not a counted foreach")
            bindings = [((var, value),) for value in range(low, high + 1)]
        head_at = self._emit(IDoHead((), -1, stmt.line))
        arms: list[DoArm] = []
        for arm in stmt.arms:
            for binding in bindings:
                body_pc = len(self.instrs)
                self._stmts(arm.body)
                self._emit(IJump(head_at))
                arms.append(DoArm(cond=arm.condition, comm=arm.comm,
                                  body=body_pc, binding=binding))
        exit_pc = len(self.instrs)
        self.instrs[head_at] = IDoHead(tuple(arms), exit_pc, stmt.line)

    def _check_elided(self) -> None:
        """An elided foreach counter must not be used anywhere else."""
        if not self.elided:
            return
        used: set[str] = set()

        def comm_names(comm) -> None:
            if isinstance(comm, ast.SendStmt):
                _expr_names(comm.value, used)
                _expr_names(comm.target.index, used)
            else:
                _expr_names(comm.target, used)
                _expr_names(comm.source.index, used)

        for instr in self.instrs:
            if isinstance(instr, IAssign):
                _expr_names(instr.target, used)
                _expr_names(instr.value, used)
            elif isinstance(instr, ISend):
                _expr_names(instr.value, used)
                _expr_names(instr.ref.index, used)
            elif isinstance(instr, IRecv):
                _expr_names(instr.target, used)
                _expr_names(instr.ref.index, used)
            elif isinstance(instr, IBranch):
                _expr_names(instr.cond, used)
            elif isinstance(instr, ISyncEach):
                if isinstance(instr.comm, ast.SendStmt):
                    _expr_names(instr.comm.value, used)
                else:
                    _expr_names(instr.comm.target, used)
            elif isinstance(instr, IDoHead):
                for arm in instr.arms:
                    _expr_names(arm.cond, used)
                    if arm.comm is not None:
                        comm_names(arm.comm)
        clash = used & self.elided
        if clash:
            raise Unsupported(
                f"foreach counter(s) {sorted(clash)} are used outside "
                f"their loop; the counted-foreach abstraction cannot "
                f"elide them")


# ---------------------------------------------------------------------------
# Abstract expression evaluation
# ---------------------------------------------------------------------------


class Evaluator:
    """Evaluate expressions over the abstract value domain.

    Values are ints, bools, strings, :class:`Atom` parameters,
    :data:`UNFILLED`, :class:`~repro.analysis.graph.Affine` symbolic
    indices, :class:`Interior` index ranges, ``tuple`` messages,
    ``frozenset`` sets, and :data:`TOP`.  ``params`` names the symbolic
    size constants (never folded to their declared values); comparisons
    against them are decided for every ``N >= floor`` or go to TOP.
    """

    def __init__(self, constants: dict[str, int], params: frozenset[str],
                 floor: int, enum_members: frozenset[str]):
        self.constants = constants
        self.params = params
        self.floor = floor
        self.enum_members = enum_members

    # -- entry point --------------------------------------------------------

    def eval(self, expr: ast.Expr, env: dict, terminated=None):
        if isinstance(expr, ast.Num):
            return expr.value
        if isinstance(expr, ast.Bool):
            return expr.value
        if isinstance(expr, ast.Str):
            return expr.value
        if isinstance(expr, ast.Name):
            ident = expr.ident
            if ident in env:
                return env[ident]
            if ident in self.params:
                return Affine(1, 0)
            if ident in self.constants:
                return self.constants[ident]
            if ident in self.enum_members:
                return ident
            return TOP                      # unassigned local / VAR param
        if isinstance(expr, ast.Unary):
            value = self.eval(expr.operand, env, terminated)
            if value is TOP:
                return TOP
            if expr.op == "NOT":
                return (not value) if isinstance(value, bool) else TOP
            if expr.op == "-":
                if isinstance(value, bool):
                    return TOP
                if isinstance(value, int):
                    return -value
                if isinstance(value, Affine):
                    return -value
            return TOP
        if isinstance(expr, ast.Binary):
            return self._binary(expr, env, terminated)
        if isinstance(expr, ast.Index):
            base = self.eval(expr.base, env, terminated)
            index = self.eval(expr.index, env, terminated)
            if isinstance(base, dict):
                if isinstance(index, int) and not isinstance(index, bool):
                    return base.get(index, TOP)
                return TOP
            return TOP
        if isinstance(expr, ast.SetLit):
            elements = [self.eval(e, env, terminated)
                        for e in expr.elements]
            if any(e is TOP for e in elements):
                return TOP
            try:
                return frozenset(elements)
            except TypeError:
                return TOP
        if isinstance(expr, ast.Call):
            args = [self.eval(a, env, terminated) for a in expr.args]
            if expr.name == "SIZE":
                if len(args) == 1 and isinstance(args[0], frozenset):
                    return len(args[0])
                return TOP
            if expr.name == "TAG":
                if len(args) == 1 and isinstance(args[0], tuple) \
                        and args[0]:
                    return args[0][0]
                return TOP
            return (expr.name, *args)       # message constructor
        if isinstance(expr, ast.Terminated):
            if terminated is None:
                return TOP
            return terminated(expr.role, env)
        return TOP

    # -- operators ----------------------------------------------------------

    def _binary(self, expr: ast.Binary, env: dict, terminated):
        op = expr.op
        if op in ("AND", "OR"):
            left = self.eval(expr.left, env, terminated)
            # Shortcut semantics keep TOP from infecting decided sides.
            if op == "AND" and left is False:
                return False
            if op == "OR" and left is True:
                return True
            right = self.eval(expr.right, env, terminated)
            if op == "AND":
                if right is False:
                    return False
                if left is True and right is True:
                    return True
                return TOP
            if right is True:
                return True
            if left is False and right is False:
                return False
            return TOP
        left = self.eval(expr.left, env, terminated)
        right = self.eval(expr.right, env, terminated)
        if op in ("+", "-", "*", "/"):
            return self._arith(op, left, right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return self.compare(op, left, right)
        if op == "IN":
            if left is TOP or right is TOP:
                return TOP
            if not isinstance(right, frozenset):
                return TOP
            found = False
            for element in right:
                part = self.compare("=", left, element)
                if part is True:
                    return True
                if part is TOP:
                    found = TOP
            return found if found is TOP else False
        return TOP

    def _arith(self, op: str, left, right):
        if left is TOP or right is TOP:
            return TOP
        if isinstance(left, frozenset) and isinstance(right, frozenset):
            if op == "+":
                return left | right
            if op == "-":
                return left - right
            return TOP
        if isinstance(left, bool) or isinstance(right, bool):
            return TOP
        if isinstance(left, int) and isinstance(right, int):
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            return left // right if right != 0 else TOP
        if isinstance(left, Interior) and isinstance(right, int):
            if op == "+":
                shift = Affine(0, right)
                return Interior(left.low + shift, left.high + shift)
            if op == "-":
                shift = Affine(0, right)
                return Interior(left.low - shift, left.high - shift)
            return TOP
        la, ra = as_affine_value(left), as_affine_value(right)
        if la is None or ra is None:
            return TOP
        if op == "+":
            return la + ra
        if op == "-":
            return la - ra
        if op == "*":
            if la.coeff == 0:
                return ra.scale(la.offset)
            if ra.coeff == 0:
                return la.scale(ra.offset)
        return TOP

    def compare(self, op: str, left, right):
        """Three-valued comparison: ``True`` / ``False`` / :data:`TOP`."""
        if left is TOP or right is TOP:
            return TOP
        numeric_left = self._numericish(left)
        numeric_right = self._numericish(right)
        if numeric_left and numeric_right:
            return self._numeric_compare(op, left, right)
        if op not in ("=", "<>"):
            return TOP
        equal = self._equal(left, right)
        if equal is TOP:
            return TOP
        return equal if op == "=" else not equal

    @staticmethod
    def _numericish(value) -> bool:
        return (isinstance(value, (Affine, Interior))
                or (isinstance(value, int) and not isinstance(value, bool)))

    def _numeric_compare(self, op: str, left, right):
        if isinstance(left, Interior) and isinstance(right, Interior):
            # Only the member's own index variable carries an Interior
            # value, so both sides denote the same index.
            return op in ("=", "<=", ">=")
        if isinstance(left, Interior) or isinstance(right, Interior):
            if isinstance(right, Interior):
                mirror = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                          "=": "=", "<>": "<>"}
                left, right, op = right, left, mirror[op]
            other = as_affine_value(right)
            if other is None:
                return TOP
            decided = interval_compare(op, left.low, left.high, other,
                                       self.floor)
            return TOP if decided is None else decided
        la, ra = as_affine_value(left), as_affine_value(right)
        decided = affine_compare(op, la, ra, self.floor)
        return TOP if decided is None else decided

    def _equal(self, left, right):
        """Abstract equality under sentinel-freedom (DESIGN.md §16)."""
        if isinstance(left, Atom) or isinstance(right, Atom):
            if isinstance(left, Atom) and isinstance(right, Atom):
                return left == right       # per-role-uniform parameters
            return False                   # atoms avoid every literal
        if left is UNFILLED or right is UNFILLED:
            return left is right
        if isinstance(left, tuple) and isinstance(right, tuple):
            if len(left) != len(right):
                return False
            decided = True
            for a, b in zip(left, right):
                part = self.compare("=", a, b)
                if part is False:
                    return False
                if part is TOP:
                    decided = TOP
            return decided
        if type(left) is not type(right):
            return False
        return left == right


def as_affine_value(value) -> Affine | None:
    """Lift ints to :class:`Affine`; pass affines; reject the rest."""
    if isinstance(value, Affine):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Affine(0, value)
    return None


# ---------------------------------------------------------------------------
# Parametric family detection and classification
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class FamilyShape:
    """The abstraction shape of one parametric family."""

    name: str
    param: str                 # the size constant
    low: int                   # folded concrete low bound
    regime: str                # "symmetric" | "ring"
    bl: int                    # low-boundary depth (members low..low+bl-1)
    bh: int                    # high-boundary depth (members n-bh+1..n)

    @property
    def floor(self) -> int:
        """Smallest ``N`` the counter abstraction covers: boundary
        members, the tracked interior member, and a counter that can
        genuinely hold >= 2 occupants must all coexist."""
        return self.low - 1 + self.bl + self.bh + 3

    @property
    def cutoff(self) -> int:
        """Largest ``N`` the ring-regime concrete sweep must check."""
        return self.low + self.bl + self.bh + 3


@dataclasses.dataclass
class ParamModel:
    """What the parameterized checker decided to do with a script."""

    param: str                  # the single size constant
    declared: int               # its declared value (used by fixed-N runs)
    families: dict[str, FamilyShape]
    strategy: str               # "abstract" | "cutoff"
    floor: int                  # abstract: smallest N covered
    cutoff: int                 # cutoff: largest N swept


def _linear(expr: ast.Expr, constants: dict[str, int], param: str,
            ivar: str | None, repl: dict[str, int]
            ) -> tuple[int, int, int] | None:
    """Fold ``expr`` to ``a*i + b*N + c`` or ``None`` when not linear."""
    if isinstance(expr, ast.Num):
        return (0, 0, expr.value)
    if isinstance(expr, ast.Name):
        if expr.ident == ivar:
            return (1, 0, 0)
        if expr.ident == param:
            return (0, 1, 0)
        if expr.ident in repl:
            return (0, 0, repl[expr.ident])
        if expr.ident in constants:
            return (0, 0, constants[expr.ident])
        return None
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = _linear(expr.operand, constants, param, ivar, repl)
        return None if inner is None else tuple(-x for x in inner)
    if isinstance(expr, ast.Binary) and expr.op in ("+", "-", "*"):
        left = _linear(expr.left, constants, param, ivar, repl)
        right = _linear(expr.right, constants, param, ivar, repl)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return tuple(a + b for a, b in zip(left, right))
        if expr.op == "-":
            return tuple(a - b for a, b in zip(left, right))
        if left[:2] == (0, 0):
            return tuple(x * left[2] for x in right)
        if right[:2] == (0, 0):
            return tuple(x * right[2] for x in left)
        return None
    return None


class _FamilyClassifier:
    """Classify every reference to one parametric family."""

    def __init__(self, program: ast.ScriptProgram, info: ProgramInfo,
                 family: ast.RoleDeclNode, param: str, low: int):
        self.program = program
        self.info = info
        self.family = family
        self.param = param
        self.low = low
        self.constants = {name: value
                          for name, value in info.constants.items()
                          if name != param}
        self.bl = 0
        self.bh = 0
        self.edges: set[int] = set()        # relative self-offsets
        self.dynamic = False

    def shape(self) -> FamilyShape:
        for role in self.program.roles:
            ivar = role.index_var if role.name == self.family.name else None
            foreach = self._foreach_vars(role)
            self._walk(role.body, ivar, {}, foreach)
        if not self.edges:
            regime = "symmetric"
        elif self.edges <= {-1, 1}:
            # A SEND to [i+1] and a RECEIVE from [i-1] are the same ring
            # edge seen from its two ends, so both offsets may appear.
            if self.dynamic:
                raise Unsupported(
                    f"family {self.family.name!r}: mixes relative "
                    f"(ring) indexing with dynamic indices")
            regime = "ring"
        else:
            raise Unsupported(
                f"family {self.family.name!r}: relative index offsets "
                f"{sorted(self.edges)} are outside the supported "
                f"ring fragment (+1/-1 only)")
        return FamilyShape(name=self.family.name, param=self.param,
                           low=self.low, regime=regime,
                           bl=self.bl, bh=self.bh)

    def _foreach_vars(self, role: ast.RoleDeclNode) -> set[int]:
        """ids of GuardedDo statements recognized as counted-foreach over
        this family (their replicator variable needs no classification)."""
        recognized: set[int] = set()

        def scan(stmts: tuple[ast.Stmt, ...]) -> None:
            for index, stmt in enumerate(stmts):
                if isinstance(stmt, ast.IfStmt):
                    scan(stmt.then_body)
                    if stmt.else_body is not None:
                        scan(stmt.else_body)
                elif isinstance(stmt, ast.GuardedDo):
                    for arm in stmt.arms:
                        scan(arm.body)
                if index + 1 < len(stmts) \
                        and isinstance(stmts[index + 1], ast.GuardedDo):
                    if match_foreach(stmt, stmts[index + 1],
                                     self.family) is not None:
                        recognized.add(id(stmts[index + 1]))

        scan(role.body)
        return recognized

    def _classify_ref(self, ref: ast.RoleRef, ivar: str | None,
                      repl: dict[str, int], line: int) -> None:
        if ref.name != self.family.name:
            return
        form = _linear(ref.index, self.constants, self.param, ivar, repl)
        if form is None:
            self.dynamic = True
            return
        a, b, c = form
        if a == 0 and b == 0:
            if c >= self.low:
                self.bl = max(self.bl, c - self.low + 1)
            return                       # below low: absent reference
        if a == 0 and b == 1:
            if c <= 0:
                self.bh = max(self.bh, -c + 1)
            return                       # above n: absent reference
        if a == 1 and b == 0:
            if c != 0:
                self.edges.add(c)
            return                       # c == 0 is a self-reference
        raise Unsupported(
            f"line {line}: index into family {self.family.name!r} has "
            f"unsupported linear form {a}*i + {b}*N + {c}")

    def _walk_expr(self, expr: ast.Expr | None, ivar: str | None,
                   repl: dict[str, int]) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Terminated):
            self._classify_ref(expr.role, ivar, repl, expr.line)
            return
        if isinstance(expr, ast.Unary):
            self._walk_expr(expr.operand, ivar, repl)
        elif isinstance(expr, ast.Binary):
            self._walk_expr(expr.left, ivar, repl)
            self._walk_expr(expr.right, ivar, repl)
        elif isinstance(expr, ast.Index):
            self._walk_expr(expr.base, ivar, repl)
            self._walk_expr(expr.index, ivar, repl)
        elif isinstance(expr, (ast.SetLit, ast.Call)):
            parts = expr.elements if isinstance(expr, ast.SetLit) \
                else expr.args
            for part in parts:
                self._walk_expr(part, ivar, repl)

    def _comm(self, stmt, ivar: str | None, repl: dict[str, int]) -> None:
        self._classify_ref(stmt.partner, ivar, repl, stmt.line)
        if isinstance(stmt, ast.SendStmt):
            self._walk_expr(stmt.value, ivar, repl)
        else:
            self._walk_expr(stmt.target, ivar, repl)

    def _walk(self, stmts: tuple[ast.Stmt, ...], ivar: str | None,
              repl: dict[str, int], foreach: set[int]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                self._walk_expr(stmt.target, ivar, repl)
                self._walk_expr(stmt.value, ivar, repl)
            elif isinstance(stmt, (ast.SendStmt, ast.ReceiveStmt)):
                self._comm(stmt, ivar, repl)
            elif isinstance(stmt, ast.IfStmt):
                self._walk_expr(stmt.condition, ivar, repl)
                self._walk(stmt.then_body, ivar, repl, foreach)
                if stmt.else_body is not None:
                    self._walk(stmt.else_body, ivar, repl, foreach)
            elif isinstance(stmt, ast.GuardedDo):
                if id(stmt) in foreach:
                    continue             # rendezvous handled by ISyncEach
                for bindings in self._repl_bindings(stmt, repl):
                    for arm in stmt.arms:
                        self._walk_expr(arm.condition, ivar, bindings)
                        if arm.comm is not None:
                            self._comm(arm.comm, ivar, bindings)
                        self._walk(arm.body, ivar, bindings, foreach)

    def _repl_bindings(self, stmt: ast.GuardedDo, repl: dict[str, int]):
        unrolled = replicator_bindings(stmt, self.constants, repl)
        if unrolled is not None:
            return unrolled
        raise Unsupported(
            f"line {stmt.line}: replicated DO bounds do not fold and the "
            f"loop is not a counted foreach over family "
            f"{self.family.name!r}")


def detect_model(program: ast.ScriptProgram,
                 info: ProgramInfo) -> ParamModel | None:
    """Find the size parameter and classify every parametric family.

    Returns ``None`` when no family bound references a constant (the
    script is fixed-size); raises :class:`Unsupported` when the script is
    parametric but outside the abstraction's fragment.
    """
    parametric: list[tuple[ast.RoleDeclNode, str, int]] = []
    for role in program.roles:
        if not role.is_family:
            continue
        high_names: set[str] = set()
        _expr_names(role.index_high, high_names)
        consts = sorted(high_names & set(info.constants))
        if not consts:
            continue
        if len(consts) > 1:
            raise Unsupported(
                f"family {role.name!r}: high bound references several "
                f"constants {consts}")
        param = consts[0]
        low_names: set[str] = set()
        _expr_names(role.index_low, low_names)
        if param in low_names:
            raise Unsupported(
                f"family {role.name!r}: low bound references the size "
                f"parameter {param!r}")
        form = _linear(role.index_high, {}, param, None, {})
        if form != (0, 1, 0):
            raise Unsupported(
                f"family {role.name!r}: high bound must be exactly the "
                f"size parameter {param!r}")
        others = {name: value for name, value in info.constants.items()
                  if name != param}
        low = static_int(role.index_low, others, {})
        if low is None:
            raise Unsupported(
                f"family {role.name!r}: low bound does not fold to a "
                f"constant")
        parametric.append((role, param, low))
    if not parametric:
        return None
    params = {param for _role, param, _low in parametric}
    if len(params) > 1:
        raise Unsupported(
            f"multiple size parameters {sorted(params)} are not supported")
    param = params.pop()
    shapes: dict[str, FamilyShape] = {}
    for role, _param, low in parametric:
        shapes[role.name] = _FamilyClassifier(
            program, info, role, param, low).shape()
    strategy = "abstract"
    if any(shape.regime == "ring" for shape in shapes.values()):
        strategy = "cutoff"
    return ParamModel(
        param=param, declared=info.constants[param], families=shapes,
        strategy=strategy,
        floor=max(shape.floor for shape in shapes.values()),
        cutoff=max(shape.cutoff for shape in shapes.values()))


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Member:
    """One tracked process of the transition system."""

    role: str
    key: object                # None | int | ("high", j) | "interior"
    label: str
    bindings: dict             # initial env: index var + IN-param atoms


@dataclasses.dataclass
class CounterFamily:
    """The counted interior members of one abstracted family."""

    family: str
    label: str
    env: dict                  # fixed (never-written) occupant env


@dataclasses.dataclass(frozen=True, slots=True)
class SyncSite:
    """The member-side rendezvous site of one :class:`ISyncEach`."""

    family: str
    pc: int                    # the unique complementary site in the
                               # family's code
    reaches: frozenset[int]    # pcs from which ``pc`` is still reachable


@dataclasses.dataclass
class System:
    """A (concrete or abstract) closed transition system over one script."""

    program: ast.ScriptProgram
    info: ProgramInfo
    mode: str                              # "concrete" | "abstract"
    evaluator: Evaluator
    codes: dict[str, Code]
    members: list[Member]
    counters: dict[str, CounterFamily]
    syncs: dict[tuple[str, int], SyncSite]  # (owner role, pc) -> site
    shapes: dict[str, FamilyShape]
    floor: int

    def resolve_ref(self, ref: ast.RoleRef, env: dict,
                    member: Member):
        """Resolve a communication partner reference.

        Returns one of ``("self",)``, ``("absent",)``,
        ``("member", role, key)`` or ``("any", role)``.
        """
        if ref.index is None:
            if member.role == ref.name:
                return ("self",)
            return ("member", ref.name, None)
        value = self.evaluator.eval(ref.index, env)
        if isinstance(value, Interior):
            # Only this member's own index evaluates to an Interior.
            return ("self",)
        shape = self.shapes.get(ref.name)
        if shape is None:                   # concrete family bounds known
            if isinstance(value, bool) or not isinstance(value, int):
                return ("any", ref.name)
            low, high = self.info.family_bounds[ref.name]
            if not low <= value <= high:
                return ("absent",)
            if member.role == ref.name and member.key == value:
                return ("self",)
            return ("member", ref.name, value)
        affine = as_affine_value(value)
        if affine is None:
            return ("any", ref.name)
        if affine.coeff == 0:
            k = affine.offset
            if k < shape.low:
                return ("absent",)
            if k <= shape.low + shape.bl - 1:
                if member.role == ref.name and member.key == k:
                    return ("self",)
                return ("member", ref.name, k)
            raise Unsupported(
                f"family {ref.name!r}: concrete index {k} escapes the "
                f"low boundary of depth {shape.bl}")
        if affine.coeff == 1:
            if affine.offset > 0:
                return ("absent",)          # beyond n for every N
            j = -affine.offset
            if j <= shape.bh - 1:
                key = ("high", j)
                if member.role == ref.name and member.key == key:
                    return ("self",)
                return ("member", ref.name, key)
            raise Unsupported(
                f"family {ref.name!r}: symbolic index n-{j} escapes the "
                f"high boundary of depth {shape.bh}")
        raise Unsupported(
            f"family {ref.name!r}: index {affine.coeff}*N + "
            f"{affine.offset} is outside the abstraction")


def _role_atoms(role: ast.RoleDeclNode) -> dict[str, Atom]:
    """IN-parameter atoms; VAR (result) parameters start unbound."""
    return {param.name: Atom(role.name, param.name)
            for param in role.params if not param.is_var}


def _default_value(type_node: ast.TypeNode, constants: dict[str, int]):
    """The interpreter's initial value for a declared local, abstracted.

    Mirrors ``repro.lang.interp.default_factory``: booleans start False,
    integers 0, items/enums ``None``, sets empty, arrays filled with their
    element default (``tests/analysis/test_abstraction.py`` compares the
    two).  Array bounds that do not fold (they mention the size
    parameter) put the array outside the abstraction.
    """
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
        return frozenset()
    if isinstance(type_node, ast.ArrayType):
        low = static_int(type_node.low, constants, {})
        high = static_int(type_node.high, constants, {})
        if low is None or high is None:
            raise Unsupported(
                "array bounds mention the size parameter; parametric "
                "arrays are outside the abstraction")
        element = _default_value(type_node.element, constants)
        return {index: element for index in range(low, high + 1)}
    raise Unsupported(f"unknown type {type_node!r}")


def _role_defaults(role: ast.RoleDeclNode,
                   constants: dict[str, int]) -> dict:
    return {var.name: _default_value(var.type, constants)
            for var in role.variables}


def written_names(code: Code) -> set[str]:
    """Names a run of ``code`` may assign (locals, VAR params, arrays).

    A counted interior occupant's environment is frozen at its initial
    value; every name the code can write must therefore read as TOP for
    occupants, or the abstraction would replay initial values after a
    write (unsound pruning)."""

    written: set[str] = set()

    def target_name(target: ast.Designator) -> None:
        if isinstance(target, ast.Name):
            written.add(target.ident)
        elif isinstance(target, ast.Index) \
                and isinstance(target.base, ast.Name):
            written.add(target.base.ident)

    for instr in code.instrs:
        if isinstance(instr, IAssign):
            target_name(instr.target)
        elif isinstance(instr, IRecv):
            target_name(instr.target)
        elif isinstance(instr, ISyncEach):
            if isinstance(instr.comm, ast.ReceiveStmt):
                target_name(instr.comm.target)
        elif isinstance(instr, IDoHead):
            for arm in instr.arms:
                if isinstance(arm.comm, ast.ReceiveStmt):
                    target_name(arm.comm.target)
    return written


def reparameterize(program: ast.ScriptProgram,
                   overrides: dict[str, int]) -> ast.ScriptProgram:
    """A copy of ``program`` with constants replaced by literal values."""
    constants = tuple(
        (name, ast.Num(overrides[name], line=expr.line)
         if name in overrides else expr)
        for name, expr in program.constants)
    return dataclasses.replace(program, constants=constants)


def build_concrete_system(program: ast.ScriptProgram,
                          overrides: dict[str, int] | None = None) -> System:
    """The exact closed system at concrete family sizes.

    ``overrides`` substitutes constants (the witness size) before
    analysis; replicated DOs unroll against the concrete bounds.
    """
    if overrides:
        program = reparameterize(program, overrides)
    info = analyze(program)
    evaluator = Evaluator(constants=dict(info.constants),
                          params=frozenset(), floor=0,
                          enum_members=info.enum_members)
    codes: dict[str, Code] = {}
    members: list[Member] = []
    for role in program.roles:
        codes[role.name] = _Compiler(
            role, dict(info.constants), {}, True).compile()
        atoms = _role_atoms(role)
        defaults = _role_defaults(role, dict(info.constants))
        if not role.is_family:
            members.append(Member(role=role.name, key=None,
                                  label=role.name,
                                  bindings={**defaults, **atoms}))
            continue
        low, high = info.family_bounds[role.name]
        for index in range(low, high + 1):
            members.append(Member(
                role=role.name, key=index,
                label=f"{role.name}[{index}]",
                bindings={**defaults, **atoms, role.index_var: index}))
    return System(program=program, info=info, mode="concrete",
                  evaluator=evaluator, codes=codes, members=members,
                  counters={}, syncs={}, shapes={}, floor=0)


def _find_sync_sites(system: System) -> None:
    """Locate and validate the member-side site of every ISyncEach."""
    for owner_role, code in sorted(system.codes.items()):
        for pc, instr in enumerate(code.instrs):
            if not isinstance(instr, ISyncEach):
                continue
            owner_decl = next(role for role in system.program.roles
                              if role.name == owner_role)
            if owner_decl.is_family:
                raise Unsupported(
                    f"counted foreach in family {owner_role!r}: only "
                    f"singleton owners are supported")
            family_code = system.codes[instr.family]
            want = IRecv if instr.kind == "send" else ISend
            sites = [site_pc for site_pc, site in
                     enumerate(family_code.instrs)
                     if isinstance(site, want)
                     and site.ref.name == owner_role]
            for other in family_code.instrs:
                if isinstance(other, IDoHead):
                    for arm in other.arms:
                        if arm.comm is None:
                            continue
                        if arm.comm.kind != instr.kind \
                                and arm.comm.partner.name == owner_role:
                            raise Unsupported(
                                f"family {instr.family!r}: rendezvous "
                                f"site toward {owner_role!r} sits inside "
                                f"a DO arm and may repeat")
            if len(sites) != 1:
                raise Unsupported(
                    f"family {instr.family!r} has {len(sites)} "
                    f"{'receive' if want is IRecv else 'send'} sites "
                    f"toward {owner_role!r}; the counted-foreach "
                    f"abstraction needs exactly one")
            site_pc = sites[0]
            if not passes_once(family_code, site_pc):
                raise Unsupported(
                    f"family {instr.family!r}: rendezvous site toward "
                    f"{owner_role!r} does not pass exactly once")
            # The owner must have no other site toward the family in the
            # same direction — otherwise "past the site" would not imply
            # "has answered the foreach".
            own_want = ISend if instr.kind == "send" else IRecv
            for other_pc, other in enumerate(code.instrs):
                if other_pc == pc:
                    continue
                if isinstance(other, own_want) \
                        and other.ref.name == instr.family:
                    raise Unsupported(
                        f"{owner_role!r} has another "
                        f"{instr.kind} site toward family "
                        f"{instr.family!r} outside the counted foreach")
                if isinstance(other, ISyncEach) \
                        and other.family == instr.family \
                        and other.kind == instr.kind:
                    raise Unsupported(
                        f"{owner_role!r} has two counted-foreach loops "
                        f"{instr.kind}ing to family {instr.family!r}")
                if isinstance(other, IDoHead):
                    for arm in other.arms:
                        if arm.comm is None:
                            continue
                        if arm.comm.kind == instr.kind \
                                and arm.comm.partner.name == instr.family:
                            raise Unsupported(
                                f"{owner_role!r} has a DO-arm "
                                f"{instr.kind} site toward family "
                                f"{instr.family!r} outside the counted "
                                f"foreach")
            system.syncs[(owner_role, pc)] = SyncSite(
                family=instr.family, pc=site_pc,
                reaches=family_code.reaches(site_pc))


def forward_reach(code: Code, start: int, avoid: int | None = None
                  ) -> set[int]:
    seen: set[int] = set()
    stack = [start]
    while stack:
        pc = stack.pop()
        if pc in seen or pc == avoid:
            continue
        seen.add(pc)
        stack.extend(code.succs(pc))
    return seen


def passes_once(code: Code, pc: int) -> bool:
    """Does every run of ``code`` execute ``pc`` exactly once?"""
    halt_pc = len(code.instrs) - 1
    if halt_pc in forward_reach(code, 0, avoid=pc):
        return False                 # a run can finish around the site
    after: set[int] = set()
    for succ in code.succs(pc):
        after |= forward_reach(code, succ)
    return pc not in after           # the site cannot repeat


def build_abstract_system(program: ast.ScriptProgram, info: ProgramInfo,
                          model: ParamModel) -> System:
    """The counter-abstracted system covering every ``N >= model.floor``.

    Only valid for ``model.strategy == "abstract"`` (every parametric
    family symmetric).  Non-parametric roles are tracked exactly; each
    parametric family contributes its boundary members, one tracked
    interior member, and a counted interior class.
    """
    assert model.strategy == "abstract"
    constants = {name: value for name, value in info.constants.items()
                 if name != model.param}
    evaluator = Evaluator(constants=constants,
                          params=frozenset({model.param}),
                          floor=model.floor,
                          enum_members=info.enum_members)
    foreach_families = {role.name: role for role in program.roles
                       if role.name in model.families}
    codes: dict[str, Code] = {}
    members: list[Member] = []
    counters: dict[str, CounterFamily] = {}
    for role in program.roles:
        code = _Compiler(role, constants, foreach_families, False).compile()
        codes[role.name] = code
        atoms = _role_atoms(role)
        defaults = _role_defaults(role, constants)
        shape = model.families.get(role.name)
        if shape is None:
            if not role.is_family:
                members.append(Member(role=role.name, key=None,
                                      label=role.name,
                                      bindings={**defaults, **atoms}))
            else:
                low, high = info.family_bounds[role.name]
                for index in range(low, high + 1):
                    members.append(Member(
                        role=role.name, key=index,
                        label=f"{role.name}[{index}]",
                        bindings={**defaults, **atoms,
                                  role.index_var: index}))
            continue
        ivar = role.index_var
        for index in range(shape.low, shape.low + shape.bl):
            members.append(Member(
                role=role.name, key=index,
                label=f"{role.name}[{index}]",
                bindings={**defaults, **atoms, ivar: Affine(0, index)}))
        interior = Interior(Affine(0, shape.low + shape.bl),
                            Affine(1, -shape.bh))
        members.append(Member(
            role=role.name, key="interior",
            label=f"{role.name}[{ivar}]",
            bindings={**defaults, **atoms, ivar: interior}))
        # Counted occupants never update their environment, so any name
        # the body can write must read as TOP from the start.
        occupant_env = {**defaults, **atoms, ivar: interior}
        for name in written_names(code):
            if name in occupant_env:
                occupant_env[name] = TOP
        counters[role.name] = CounterFamily(
            family=role.name, label=f"{role.name}[rest]",
            env=occupant_env)
        for j in range(shape.bh - 1, -1, -1):
            suffix = model.param if j == 0 else f"{model.param}-{j}"
            members.append(Member(
                role=role.name, key=("high", j),
                label=f"{role.name}[{suffix}]",
                bindings={**defaults, **atoms, ivar: Affine(1, -j)}))
    system = System(program=program, info=info, mode="abstract",
                    evaluator=evaluator, codes=codes, members=members,
                    counters=counters, syncs={}, shapes=model.families,
                    floor=model.floor)
    _find_sync_sites(system)
    return system
