"""Synchronous wait-for analysis: guaranteed deadlocks and blocks.

:func:`guaranteed_prefix` extracts, for one concrete role *instance*, the
sequence of communications that **must** happen, in order, before anything
data-dependent can occur.  The walk folds IF conditions that are static for
the instance (the family index variable is a known constant, so Figure 4's
``IF i = 1`` resolves per recipient) and stops — marking the prefix
*incomplete* — at the first genuinely dynamic point: an unfoldable IF
condition, any guarded DO, or a communication whose partner index cannot
be resolved.  A communication whose resolved target is outside the
partner family's bounds is a rendezvous with an *absent* role: under the
default DISTINGUISHED unfilled-role policy the engine returns the
distinguished value and the role carries on, so the walk records no
operation and continues — mirroring the runtime exactly.

Every operation in a prefix *must* be attempted, in order, by its
instance, so an abstract, synchronous execution of the prefixes is
faithful to every engine schedule.  The matcher repeatedly commits
complementary current operations (A's ``send -> B`` against B's
``recv <- A``); commits only ever enable more commits and each instance
has a single current operation, so the fixpoint is confluent — order does
not matter.

When no more pairs can commit, instances still holding operations are
*stuck*.  A stuck instance may still progress if its partner's behavior is
unknown (the partner's prefix was cut at a dynamic point), or —
transitively — if its partner may progress; propagating that through the
wait-for graph leaves a set of instances that are **guaranteed** blocked
in every run.  Among those, wait-for cycles are reported as rendezvous
deadlocks (SCR005); chains into a terminated or blocked partner as
guaranteed blocks (SCR006); and code following a guaranteed block as
unreachable (SCR007).  DESIGN.md §11 gives the soundness argument.
"""

from __future__ import annotations

import dataclasses

from ..lang import ast_nodes as ast
from ..lang.analysis import ProgramInfo
from .diagnostics import Report
from .graph import (Instance, instance_label, role_instances, static_eval,
                    static_int)

# ---------------------------------------------------------------------------
# Guaranteed communication prefixes
# ---------------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class PrefixOp:
    """One unconditional communication in an instance's guaranteed prefix.

    ``next_line`` is the source line of the statement that follows this
    operation in the guaranteed walk (used to report code made unreachable
    by a guaranteed block), or ``None`` when nothing follows.
    """

    kind: str                  # "send" | "recv"
    partner: Instance
    line: int
    next_line: int | None = None


@dataclasses.dataclass(slots=True)
class Prefix:
    """An instance's guaranteed communication prefix.

    ``complete`` is True when the walk reached the end of the body — the
    instance performs exactly ``ops`` and terminates.  False means the
    instance reached a dynamic point and may do *anything* afterwards
    (including further communication), so nothing may be concluded about
    its behavior beyond ``ops``.
    """

    instance: Instance
    ops: list[PrefixOp]
    complete: bool


class _PrefixWalker:
    def __init__(self, info: ProgramInfo, instance: Instance,
                 bindings: dict[str, int]):
        self.info = info
        self.instance = instance
        self.bindings = bindings
        self.ops: list[PrefixOp] = []

    def _note_follower(self, line: int) -> None:
        if self.ops and self.ops[-1].next_line is None:
            self.ops[-1].next_line = line

    def walk(self, stmts: tuple[ast.Stmt, ...]) -> bool:
        """Walk ``stmts``; returns False when a dynamic point cut us off."""
        for stmt in stmts:
            self._note_follower(stmt.line)
            if isinstance(stmt, (ast.Assign, ast.SkipStmt)):
                continue
            if isinstance(stmt, (ast.SendStmt, ast.ReceiveStmt)):
                if not self._comm(stmt):
                    return False
                continue
            if isinstance(stmt, ast.IfStmt):
                condition = static_eval(stmt.condition, self.info.constants,
                                        self.bindings)
                if condition is None:
                    return False
                branch = stmt.then_body if condition else stmt.else_body
                if branch is not None and not self.walk(branch):
                    return False
                continue
            if isinstance(stmt, ast.GuardedDo):
                return False
        return True

    def _comm(self, stmt: ast.SendStmt | ast.ReceiveStmt) -> bool:
        ref = stmt.partner
        index: int | None = None
        if ref.index is not None:
            index = static_int(ref.index, self.info.constants, self.bindings)
            if index is None:
                return False           # dynamic partner: give up
        bounds = self.info.family_bounds.get(ref.name)
        if bounds is not None and index is not None:
            low, high = bounds
            if not low <= index <= high:
                # Absent partner: the engine yields the distinguished
                # UNFILLED value and execution continues (SCR003 is
                # reported separately by the graph pass).
                return True
        self.ops.append(PrefixOp(kind=stmt.kind, partner=(ref.name, index),
                                 line=stmt.line))
        return True


def guaranteed_prefix(role: ast.RoleDeclNode, instance: Instance,
                      bindings: dict[str, int], info: ProgramInfo) -> Prefix:
    """The guaranteed communication prefix of one role instance."""
    walker = _PrefixWalker(info, instance, bindings)
    complete = walker.walk(role.body)
    return Prefix(instance=instance, ops=walker.ops, complete=complete)


# ---------------------------------------------------------------------------
# Wait-for analysis
# ---------------------------------------------------------------------------


def collect_prefixes(program: ast.ScriptProgram, info: ProgramInfo
                     ) -> dict[Instance, Prefix]:
    """The guaranteed prefix of every role instance, declaration order."""
    prefixes: dict[Instance, Prefix] = {}
    for role in program.roles:
        for instance, bindings in role_instances(role, info):
            prefixes[instance] = guaranteed_prefix(role, instance,
                                                   bindings, info)
    return prefixes


def _complementary(a: PrefixOp, a_inst: Instance,
                   b: PrefixOp, b_inst: Instance) -> bool:
    """Do ``a`` (of ``a_inst``) and ``b`` (of ``b_inst``) rendezvous?"""
    if a.kind == b.kind:
        return False
    return a.partner == b_inst and b.partner == a_inst


def _match_fixpoint(prefixes: dict[Instance, Prefix]) -> dict[Instance, int]:
    """Commit guaranteed rendezvous until quiescence; returns final pcs."""
    pcs = {instance: 0 for instance in prefixes}

    def current(instance: Instance) -> PrefixOp | None:
        prefix = prefixes[instance]
        pc = pcs[instance]
        return prefix.ops[pc] if pc < len(prefix.ops) else None

    changed = True
    while changed:
        changed = False
        for instance in prefixes:
            op = current(instance)
            if op is None:
                continue
            partner = op.partner
            if partner not in prefixes:
                continue
            partner_op = current(partner)
            if partner_op is None:
                continue
            if _complementary(op, instance, partner_op, partner):
                pcs[instance] += 1
                pcs[partner] += 1
                changed = True
    return pcs


def analyze_deadlocks(program: ast.ScriptProgram, info: ProgramInfo,
                      report: Report) -> None:
    """Emit SCR005/SCR006/SCR007 findings for guaranteed blocks."""
    prefixes = collect_prefixes(program, info)
    pcs = _match_fixpoint(prefixes)

    status: dict[Instance, str] = {}
    for instance, prefix in prefixes.items():
        if pcs[instance] >= len(prefix.ops):
            status[instance] = "done" if prefix.complete else "unknown"
        else:
            status[instance] = "stuck"

    stuck = [i for i in prefixes if status[i] == "stuck"]

    def partner_of(instance: Instance) -> Instance:
        return prefixes[instance].ops[pcs[instance]].partner

    # An instance whose partner's behavior is unknown might progress; so
    # might anything waiting (transitively) on such an instance.
    may_progress: set[Instance] = set()
    changed = True
    while changed:
        changed = False
        for instance in stuck:
            if instance in may_progress:
                continue
            partner = partner_of(instance)
            if partner not in prefixes \
                    or status[partner] == "unknown" \
                    or partner in may_progress:
                may_progress.add(instance)
                changed = True

    blocked = [i for i in stuck if i not in may_progress]
    blocked_set = set(blocked)

    # Wait-for cycles among the guaranteed-blocked instances.  Each
    # blocked instance has exactly one out-edge (its current partner), so
    # a colored walk finds every cycle exactly once.
    on_cycle: set[Instance] = set()
    cycles: list[list[Instance]] = []
    visited: set[Instance] = set()
    for start in blocked:
        if start in visited:
            continue
        path: list[Instance] = []
        seen_here: dict[Instance, int] = {}
        node = start
        while node in blocked_set and node not in visited \
                and node not in seen_here:
            seen_here[node] = len(path)
            path.append(node)
            node = partner_of(node)
        if node in seen_here:       # closed a new cycle
            cycle = path[seen_here[node]:]
            cycles.append(cycle)
            on_cycle.update(cycle)
        visited.update(path)

    verbs = {"send": "waits to send to", "recv": "waits to receive from"}
    complements = {"send": "receive", "recv": "send"}

    for cycle in cycles:
        # Canonical rotation: start at the lexicographically least label.
        labels = [instance_label(i) for i in cycle]
        pivot = labels.index(min(labels))
        cycle = cycle[pivot:] + cycle[:pivot]
        parts = []
        for member in cycle:
            op = prefixes[member].ops[pcs[member]]
            parts.append(f"{instance_label(member)} "
                         f"{verbs[op.kind]} {instance_label(op.partner)} "
                         f"(line {op.line})")
        head = cycle[0]
        head_op = prefixes[head].ops[pcs[head]]
        if len(cycle) == 1:
            message = (f"guaranteed block: {parts[0]} — an instance can "
                       f"never rendezvous with itself")
            report.emit("SCR006", head_op.line, instance_label(head),
                        message, partner=instance_label(head_op.partner))
        else:
            message = ("guaranteed rendezvous deadlock: "
                       + "; ".join(parts))
            report.emit("SCR005", head_op.line, instance_label(head),
                        message, partner=instance_label(head_op.partner))

    for instance in blocked:
        if instance in on_cycle:
            continue
        op = prefixes[instance].ops[pcs[instance]]
        partner = op.partner
        me = instance_label(instance)
        other = instance_label(partner)
        if status.get(partner) == "done":
            why = (f"{other} terminates without a matching "
                   f"{complements[op.kind]}")
        else:
            why = f"{other} is itself permanently blocked"
        report.emit("SCR006", op.line, me,
                    f"guaranteed block: {me} {verbs[op.kind]} {other} "
                    f"at line {op.line}, but {why}", partner=other)

    for instance in blocked:
        op = prefixes[instance].ops[pcs[instance]]
        if op.next_line is not None:
            report.emit(
                "SCR007", op.next_line, instance_label(instance),
                f"unreachable: {instance_label(instance)} is permanently "
                f"blocked at line {op.line}, so this statement can never "
                f"execute")
