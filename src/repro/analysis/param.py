"""Parameterized model checking over abstract and concrete systems.

:func:`explore_system` exhaustively walks the synchronous state space of a
:class:`~repro.analysis.abstraction.System` — breadth-first, with
canonical state encoding, frontier dedup, and a deterministic transition
order, so repeated runs visit identical states in identical order.  The
exploration records

* **deadlocks**: reachable non-terminal configurations with no outgoing
  transition;
* **livelocks**: reachable configurations from which no terminal
  configuration is reachable at all (a liveness violation under *any*
  fair schedule — computed by backward reachability from the terminal
  set);
* the state/frontier counters summed in ``repro analyze``'s summary.

:func:`run_parameterized` is the orchestration behind ``repro analyze
--parameterized``: classify the script
(:func:`~repro.analysis.abstraction.detect_model`), sweep the small
concrete sizes exactly, run the counter abstraction (symmetric regime) or
the cutoff sweep (ring regime), and concretize every abstract
counterexample before reporting SCR010/SCR011 — anything unconfirmed or
out-of-fragment degrades honestly to SCR012.

The engine semantics mirrored here (checked against
``repro.core.context``): in a closed full cast every role is *filled*, so
a communication with a member whose body already finished blocks forever
— it does **not** yield UNFILLED.  UNFILLED arises only for out-of-bounds
family indices (absent roles), and ``r.terminated`` is true exactly when
``r``'s body finished or ``r`` is absent.
"""

from __future__ import annotations

import dataclasses

from ..lang import ast_nodes as ast
from ..lang.analysis import ProgramInfo
from .abstraction import (TOP, UNFILLED, Code, CounterFamily, IAssign,
                          IBranch, IDoHead, IHalt, IJump, IRecv, ISend,
                          ISyncEach, Member, ParamModel, System,
                          Unsupported, build_abstract_system,
                          build_concrete_system, detect_model)

#: Counter value meaning "at least two occupants" (the cutoff domain is
#: {0, 1, OMEGA}; decrementing OMEGA nondeterministically yields 1 or
#: OMEGA, which is what makes one abstract run cover every family size).
OMEGA = 2

#: Default bound on explored states before the run reports inconclusive.
DEFAULT_MAX_STATES = 200_000


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class Config:
    """One global configuration: member control points and environments
    plus, per abstracted family, the counter valuation over locations."""

    pcs: tuple[int, ...]
    envs: tuple[dict, ...]
    counters: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]


def _canon(value):
    """A hashable, deterministic encoding of one abstract value."""
    if isinstance(value, dict):
        return ("#arr",) + tuple(
            (key, _canon(item)) for key, item in sorted(value.items()))
    if isinstance(value, tuple):
        return ("#tup",) + tuple(_canon(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return ("#set",) + tuple(sorted(repr(_canon(item))
                                        for item in value))
    return value


def _encode_env(env: dict) -> tuple:
    return tuple(sorted(((name, _canon(value))
                         for name, value in env.items()),
                        key=lambda item: item[0]))


def encode(config: Config) -> tuple:
    return (config.pcs,
            tuple(_encode_env(env) for env in config.envs),
            config.counters)


def _has_terminated(expr) -> bool:
    if isinstance(expr, ast.Terminated):
        return True
    if isinstance(expr, ast.Unary):
        return _has_terminated(expr.operand)
    if isinstance(expr, ast.Binary):
        return _has_terminated(expr.left) or _has_terminated(expr.right)
    if isinstance(expr, ast.Index):
        return _has_terminated(expr.base) or _has_terminated(expr.index)
    if isinstance(expr, (ast.SetLit, ast.Call)):
        parts = expr.elements if isinstance(expr, ast.SetLit) else expr.args
        return any(_has_terminated(part) for part in parts)
    return False


@dataclasses.dataclass(slots=True)
class _Endpoint:
    """A communication offer: who, which direction, with whom, and where
    control continues once the rendezvous commits."""

    owner: tuple               # ("m", member index) | ("c", family, loc)
    kind: str                  # "send" | "recv"
    spec: tuple                # resolved partner spec
    env: dict                  # evaluation env (arm binding included)
    value: object              # send value expression (sends)
    target: object             # receive target designator (receives)
    next_pc: int               # pc/loc on commit
    binding: dict              # replicator binding to install on commit


class _Explorer:
    def __init__(self, system: System, max_states: int):
        self.system = system
        self.ev = system.evaluator
        self.members = system.members
        self.codes = [system.codes[member.role] for member in system.members]
        self.max_states = max_states
        self.counter_order = sorted(system.counters)
        self._halt_pcs = {role: len(code.instrs) - 1
                          for role, code in system.codes.items()}

    # -- initial configuration ---------------------------------------------

    def initial(self) -> Config:
        pcs: list[int] = []
        envs: list[dict] = []
        for position, member in enumerate(self.members):
            pc, env = self._advance(self.codes[position], 0,
                                    dict(member.bindings))
            pcs.append(pc)
            envs.append(env)
        counters = tuple(
            (family, ((0, OMEGA),)) for family in self.counter_order)
        return Config(pcs=tuple(pcs), envs=tuple(envs), counters=counters)

    # -- local execution ----------------------------------------------------

    def _advance(self, code: Code, pc: int, env: dict) -> tuple[int, dict]:
        """Run terminated-free internal instructions to the next rest
        point.  Local-deterministic steps commute with every other
        process, so collapsing them loses no interleavings; anything
        reading ``r.terminated`` is non-local and stays a transition."""
        while True:
            instr = code.instrs[pc]
            if isinstance(instr, IJump):
                pc = instr.to
            elif isinstance(instr, IAssign) \
                    and not _has_terminated(instr.value) \
                    and not _has_terminated(instr.target):
                env = dict(env)
                self._assign(instr.target, self.ev.eval(instr.value, env),
                             env)
                pc += 1
            elif isinstance(instr, IBranch) \
                    and not _has_terminated(instr.cond):
                cond = self.ev.eval(instr.cond, env)
                if cond is True:
                    pc += 1
                elif cond is False:
                    pc = instr.orelse
                else:
                    return pc, env
            else:
                return pc, env

    def _assign(self, target, value, env: dict) -> None:
        if isinstance(target, ast.Name):
            current = env.get(target.ident)
            if isinstance(current, dict) and not isinstance(value, dict):
                env[target.ident] = {key: value for key in current}
            else:
                env[target.ident] = value
            return
        if isinstance(target, ast.Index) \
                and isinstance(target.base, ast.Name):
            base = env.get(target.base.ident)
            index = self.ev.eval(target.index, env)
            if isinstance(base, dict) and isinstance(index, int) \
                    and not isinstance(index, bool) and index in base:
                updated = dict(base)
                updated[index] = value
                env[target.base.ident] = updated
            else:
                env[target.base.ident] = TOP
            return

    # -- status queries ------------------------------------------------------

    def _member_halted(self, config: Config, position: int) -> bool:
        return isinstance(self.codes[position].instrs[config.pcs[position]],
                          IHalt)

    def _counter_valuation(self, config: Config, family: str
                           ) -> dict[int, int]:
        for name, locs in config.counters:
            if name == family:
                return dict(locs)
        return {}

    def _class_halted(self, config: Config, role: str) -> bool:
        """Is every process of ``role`` (tracked and counted) finished?"""
        for position, member in enumerate(self.members):
            if member.role == role and not self._member_halted(config,
                                                               position):
                return False
        if role in self.system.counters:
            halt = self._halt_pcs[role]
            for loc, count in self._counter_valuation(config, role).items():
                if count > 0 and loc != halt:
                    return False
        return True

    def _terminated_resolver(self, config: Config, member: Member):
        index_of = {(m.role, m.key): i
                    for i, m in enumerate(self.members)}

        def resolver(ref: ast.RoleRef, env: dict):
            spec = self.system.resolve_ref(ref, env, member)
            if spec[0] == "self":
                return False
            if spec[0] == "absent":
                return True        # absent roles report terminated = true
            if spec[0] == "member":
                position = index_of.get((spec[1], spec[2]))
                if position is None:
                    return TOP
                return self._member_halted(config, position)
            return True if self._class_halted(config, spec[1]) else \
                (False if not self._any_halted(config, spec[1]) else TOP)

        return resolver

    def _any_halted(self, config: Config, role: str) -> bool:
        for position, member in enumerate(self.members):
            if member.role == role and self._member_halted(config, position):
                return True
        if role in self.system.counters:
            halt = self._halt_pcs[role]
            valuation = self._counter_valuation(config, role)
            if valuation.get(halt, 0) > 0:
                return True
        return False

    def is_terminal(self, config: Config) -> bool:
        for position in range(len(self.members)):
            if not self._member_halted(config, position):
                return False
        for family, locs in config.counters:
            halt = self._halt_pcs[family]
            for loc, count in locs:
                if count > 0 and loc != halt:
                    return False
        return True

    # -- successor construction ---------------------------------------------

    def _state(self, config: Config):
        return (list(config.pcs), [dict(env) for env in config.envs],
                {family: dict(locs) for family, locs in config.counters})

    def _pack(self, pcs, envs, counters) -> Config:
        for position in range(len(pcs)):
            pcs[position], envs[position] = self._advance(
                self.codes[position], pcs[position], envs[position])
        packed = tuple(
            (family, tuple(sorted(
                (loc, count) for loc, count in counters[family].items()
                if count > 0)))
            for family in self.counter_order)
        return Config(pcs=tuple(pcs), envs=tuple(envs), counters=packed)

    def _counter_move(self, counters, family: str, loc: int,
                      next_loc: int) -> list[dict]:
        """All counter valuations after one occupant moves loc->next."""
        base = counters[family]
        variants: list[dict] = []
        count = base.get(loc, 0)
        if count <= 0:
            return []
        if count == 1:
            removed = dict(base)
            removed[loc] = 0
            variants.append(removed)
        else:                      # OMEGA: one leaves, 1 or >=2 remain
            one_left = dict(base)
            one_left[loc] = 1
            variants.append(one_left)
            variants.append(dict(base))
        for variant in variants:
            current = variant.get(next_loc, 0)
            variant[next_loc] = 1 if current == 0 else OMEGA
        return variants

    def successors(self, config: Config) -> list[Config]:
        succs: list[Config] = []
        endpoints: list[_Endpoint] = []

        for position, member in enumerate(self.members):
            self._member_successors(config, position, member, succs,
                                    endpoints)
        self._counter_successors(config, succs, endpoints)
        self._rendezvous(config, endpoints, succs)
        return succs

    def _emit(self, succs, config, *, member=None, pc=None, env=None,
              counters_update=None):
        pcs, envs, counters = self._state(config)
        if member is not None:
            pcs[member] = pc
            if env is not None:
                envs[member] = env
        if counters_update is not None:
            family, valuation = counters_update
            counters[family] = valuation
        succs.append(self._pack(pcs, envs, counters))

    def _member_successors(self, config, position, member, succs,
                           endpoints) -> None:
        code = self.codes[position]
        pc = config.pcs[position]
        env = config.envs[position]
        instr = code.instrs[pc]
        terminated = self._terminated_resolver(config, member)
        if isinstance(instr, IHalt):
            return
        if isinstance(instr, IBranch):
            cond = self.ev.eval(instr.cond, env, terminated)
            if cond is not False:
                self._emit(succs, config, member=position, pc=pc + 1)
            if cond is not True:
                self._emit(succs, config, member=position, pc=instr.orelse)
            return
        if isinstance(instr, IAssign):
            # Rest point only for terminated-reading assignments.
            updated = dict(env)
            self._assign(instr.target,
                         self.ev.eval(instr.value, env, terminated), updated)
            self._emit(succs, config, member=position, pc=pc + 1,
                       env=updated)
            return
        if isinstance(instr, (ISend, IRecv)):
            ref = instr.ref
            spec = self.system.resolve_ref(ref, env, member)
            if spec[0] == "absent":
                if isinstance(instr, IRecv):
                    updated = dict(env)
                    self._assign(instr.target, UNFILLED, updated)
                    self._emit(succs, config, member=position, pc=pc + 1,
                               env=updated)
                else:
                    self._emit(succs, config, member=position, pc=pc + 1)
                return
            if spec[0] == "self":
                return             # a self-rendezvous can never commit
            endpoints.append(_Endpoint(
                owner=("m", position),
                kind="send" if isinstance(instr, ISend) else "recv",
                spec=spec, env=env,
                value=instr.value if isinstance(instr, ISend) else None,
                target=instr.target if isinstance(instr, IRecv) else None,
                next_pc=pc + 1, binding={}))
            return
        if isinstance(instr, IDoHead):
            self._dohead(config, position, member, instr, succs, endpoints)
            return
        if isinstance(instr, ISyncEach):
            self._synceach(config, position, member, pc, instr, succs)
            return

    def _dohead(self, config, position, member, instr, succs,
                endpoints) -> None:
        env = config.envs[position]
        terminated = self._terminated_resolver(config, member)
        exit_possible = True
        for arm in instr.arms:
            arm_env = dict(env)
            arm_env.update(arm.binding)
            cond = True if arm.cond is None else \
                self.ev.eval(arm.cond, arm_env, terminated)
            if cond is False:
                continue
            if arm.comm is None:
                # A pure arm that may be enabled: the loop takes it.
                self._emit(succs, config, member=position, pc=arm.body,
                           env=arm_env)
                if cond is True:
                    exit_possible = False
                continue
            spec = self.system.resolve_ref(arm.comm.partner, arm_env, member)
            if spec[0] == "absent":
                continue           # dropped branch: counts toward exit
            if cond is True:
                exit_possible = False
            if spec[0] == "self":
                continue           # live branch that can never fire
            endpoints.append(_Endpoint(
                owner=("m", position),
                kind=arm.comm.kind,
                spec=spec, env=arm_env,
                value=arm.comm.value
                if isinstance(arm.comm, ast.SendStmt) else None,
                target=arm.comm.target
                if isinstance(arm.comm, ast.ReceiveStmt) else None,
                next_pc=arm.body, binding=dict(arm.binding)))
        if exit_possible:
            self._emit(succs, config, member=position, pc=instr.exit)

    def _synceach(self, config, position, member, pc, instr, succs) -> None:
        sync = self.system.syncs[(member.role, pc)]
        family_code = self.system.codes[sync.family]
        site = family_code.instrs[sync.pc]
        counter = self.system.counters[sync.family]
        # Individual rendezvous with each tracked family member at the
        # site, then with counted occupants parked there.
        for other_pos, other in enumerate(self.members):
            if other.role != sync.family:
                continue
            if config.pcs[other_pos] != sync.pc:
                continue
            pcs, envs, counters = self._state(config)
            if instr.kind == "recv":
                value = self.ev.eval(site.value, envs[other_pos])
                self._assign(instr.comm.target, value, envs[position])
            else:
                value = self.ev.eval(instr.comm.value, envs[position])
                self._assign(site.target, value, envs[other_pos])
            pcs[other_pos] = sync.pc + 1
            succs.append(self._pack(pcs, envs, counters))
        valuation = self._counter_valuation(config, sync.family)
        if valuation.get(sync.pc, 0) > 0:
            base_counters = {family: dict(locs)
                             for family, locs in config.counters}
            for variant in self._counter_move(base_counters, sync.family,
                                              sync.pc, sync.pc + 1):
                pcs, envs, counters = self._state(config)
                if instr.kind == "recv":
                    value = self.ev.eval(site.value, counter.env)
                    self._assign(instr.comm.target, value, envs[position])
                counters[sync.family] = variant
                succs.append(self._pack(pcs, envs, counters))
        # Exit: every family member is past its rendezvous site.
        for other_pos, other in enumerate(self.members):
            if other.role == sync.family \
                    and config.pcs[other_pos] in sync.reaches:
                return
        for loc, count in valuation.items():
            if count > 0 and loc in sync.reaches:
                return
        self._emit(succs, config, member=position, pc=pc + 1)

    def _counter_successors(self, config, succs, endpoints) -> None:
        for family in self.counter_order:
            counter = self.system.counters[family]
            code = self.system.codes[family]
            valuation = self._counter_valuation(config, family)
            for loc in sorted(valuation):
                if valuation[loc] <= 0:
                    continue
                instr = code.instrs[loc]
                if isinstance(instr, IHalt):
                    continue
                if isinstance(instr, (IJump, IAssign, IBranch)):
                    targets: list[int] = []
                    if isinstance(instr, IJump):
                        targets = [instr.to]
                    elif isinstance(instr, IAssign):
                        targets = [loc + 1]
                    else:
                        cond = self.ev.eval(instr.cond, counter.env,
                                            self._counter_terminated(
                                                config, family))
                        if cond is not False:
                            targets.append(loc + 1)
                        if cond is not True:
                            targets.append(instr.orelse)
                    base = {fam: dict(locs)
                            for fam, locs in config.counters}
                    for target in targets:
                        for variant in self._counter_move(
                                base, family, loc, target):
                            self._emit(succs, config,
                                       counters_update=(family, variant))
                    continue
                if isinstance(instr, (ISend, IRecv)):
                    spec = self._counter_resolve(instr.ref, counter, family)
                    if spec[0] == "absent":
                        base = {fam: dict(locs)
                                for fam, locs in config.counters}
                        for variant in self._counter_move(
                                base, family, loc, loc + 1):
                            self._emit(succs, config,
                                       counters_update=(family, variant))
                        continue
                    if spec[0] == "self":
                        continue
                    endpoints.append(_Endpoint(
                        owner=("c", family, loc),
                        kind="send" if isinstance(instr, ISend) else "recv",
                        spec=spec, env=counter.env,
                        value=instr.value if isinstance(instr, ISend)
                        else None,
                        target=None, next_pc=loc + 1, binding={}))
                    continue
                if isinstance(instr, IDoHead):
                    self._counter_dohead(config, family, counter, loc,
                                         instr, succs, endpoints)
                    continue

    def _counter_terminated(self, config, family: str):
        counter = self.system.counters[family]
        proxy = Member(role=family, key="interior", label=counter.label,
                       bindings=counter.env)
        return self._terminated_resolver(config, proxy)

    def _counter_resolve(self, ref, counter: CounterFamily, family: str):
        proxy = Member(role=family, key="interior", label=counter.label,
                       bindings=counter.env)
        return self.system.resolve_ref(ref, counter.env, proxy)

    def _counter_dohead(self, config, family, counter, loc, instr, succs,
                        endpoints) -> None:
        terminated = self._counter_terminated(config, family)
        exit_possible = True
        for arm in instr.arms:
            arm_env = dict(counter.env)
            arm_env.update(arm.binding)
            cond = True if arm.cond is None else \
                self.ev.eval(arm.cond, arm_env, terminated)
            if cond is False:
                continue
            if arm.comm is None:
                base = {fam: dict(locs) for fam, locs in config.counters}
                for variant in self._counter_move(base, family, loc,
                                                  arm.body):
                    self._emit(succs, config,
                               counters_update=(family, variant))
                if cond is True:
                    exit_possible = False
                continue
            spec = self._counter_resolve(arm.comm.partner, counter, family)
            if spec[0] == "absent":
                continue
            if cond is True:
                exit_possible = False
            if spec[0] == "self":
                continue
            endpoints.append(_Endpoint(
                owner=("c", family, loc),
                kind=arm.comm.kind,
                spec=spec, env=arm_env,
                value=arm.comm.value
                if isinstance(arm.comm, ast.SendStmt) else None,
                target=None, next_pc=arm.body, binding={}))
        if exit_possible:
            base = {fam: dict(locs) for fam, locs in config.counters}
            for variant in self._counter_move(base, family, loc,
                                              instr.exit):
                self._emit(succs, config, counters_update=(family, variant))

    # -- rendezvous matching -------------------------------------------------

    def _spec_allows(self, spec: tuple, owner: tuple) -> bool:
        if spec[0] == "any":
            if owner[0] == "m":
                return self.members[owner[1]].role == spec[1]
            return owner[1] == spec[1]
        if spec[0] == "member":
            if owner[0] != "m":
                return False
            member = self.members[owner[1]]
            return member.role == spec[1] and member.key == spec[2]
        return False

    def _rendezvous(self, config, endpoints, succs) -> None:
        senders = [e for e in endpoints if e.kind == "send"]
        receivers = [e for e in endpoints if e.kind == "recv"]
        for sender in senders:
            for receiver in receivers:
                if sender.owner == receiver.owner:
                    continue
                if not self._spec_allows(sender.spec, receiver.owner):
                    continue
                if not self._spec_allows(receiver.spec, sender.owner):
                    continue
                self._commit(config, sender, receiver, succs)

    def _commit(self, config, sender: _Endpoint, receiver: _Endpoint,
                succs) -> None:
        value = self.ev.eval(sender.value, sender.env)
        states = [self._state(config)]
        for endpoint in (sender, receiver):
            states = self._apply(states, config, endpoint,
                                 value if endpoint is receiver else None)
        for pcs, envs, counters in states:
            succs.append(self._pack(pcs, envs, counters))

    def _apply(self, states, config, endpoint: _Endpoint, value):
        """Apply one endpoint's commit effect to every pending variant."""
        out = []
        for pcs, envs, counters in states:
            if endpoint.owner[0] == "m":
                position = endpoint.owner[1]
                env = dict(envs[position])
                env.update(endpoint.binding)
                if endpoint.target is not None:
                    self._assign(endpoint.target, value, env)
                new_envs = list(envs)
                new_envs[position] = env
                new_pcs = list(pcs)
                new_pcs[position] = endpoint.next_pc
                out.append((new_pcs, new_envs, counters))
            else:
                _tag, family, loc = endpoint.owner
                for variant in self._counter_move(
                        {family: dict(counters[family])}, family, loc,
                        endpoint.next_pc):
                    new_counters = dict(counters)
                    new_counters[family] = variant
                    out.append((list(pcs), list(envs), new_counters))
        return out


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Exploration:
    """The result of one exhaustive walk of a system's state space."""

    system: System
    states: int
    frontier_peak: int
    capped: bool
    terminal_count: int
    deadlocks: list[Config]        # discovery (BFS) order
    livelocks: list[Config]

    def blocked(self, config: Config) -> list[tuple[str, int]]:
        """(label, line) for every non-halted process of ``config``."""
        rows: list[tuple[str, int]] = []
        for position, member in enumerate(self.system.members):
            code = self.system.codes[member.role]
            instr = code.instrs[config.pcs[position]]
            if isinstance(instr, IHalt):
                continue
            rows.append((member.label, getattr(instr, "line", 0)))
        for family, locs in config.counters:
            code = self.system.codes[family]
            counter = self.system.counters[family]
            for loc, count in locs:
                instr = code.instrs[loc]
                if count > 0 and not isinstance(instr, IHalt):
                    rows.append((counter.label, getattr(instr, "line", 0)))
        return sorted(set(rows))


def explore_system(system: System,
                   max_states: int = DEFAULT_MAX_STATES) -> Exploration:
    """Exhaustively explore ``system`` breadth-first."""
    explorer = _Explorer(system, max_states)
    initial = explorer.initial()
    visited: dict[tuple, Config] = {encode(initial): initial}
    order: list[tuple] = [encode(initial)]
    edges: dict[tuple, tuple] = {}
    frontier = [encode(initial)]
    frontier_peak = 1
    capped = False
    head = 0
    while head < len(frontier):
        if len(visited) > max_states:
            capped = True
            break
        key = frontier[head]
        head += 1
        config = visited[key]
        succ_keys: list[tuple] = []
        for successor in explorer.successors(config):
            skey = encode(successor)
            succ_keys.append(skey)
            if skey not in visited:
                visited[skey] = successor
                order.append(skey)
                frontier.append(skey)
        edges[key] = tuple(succ_keys)
        frontier_peak = max(frontier_peak, len(frontier) - head)
    deadlocks: list[Config] = []
    terminals: list[tuple] = []
    for key in order:
        if key not in edges:
            continue               # beyond the cap: unclassified
        if edges[key]:
            continue
        config = visited[key]
        if explorer.is_terminal(config):
            terminals.append(key)
        else:
            deadlocks.append(config)
    livelocks: list[Config] = []
    if not capped:
        predecessors: dict[tuple, list[tuple]] = {}
        for key, succ_keys in edges.items():
            for skey in succ_keys:
                predecessors.setdefault(skey, []).append(key)
        can_finish = set(terminals)
        stack = list(terminals)
        while stack:
            key = stack.pop()
            for pred in predecessors.get(key, ()):
                if pred not in can_finish:
                    can_finish.add(pred)
                    stack.append(pred)
        deadlock_keys = {encode(config) for config in deadlocks}
        for key in order:
            if key in can_finish or key in deadlock_keys:
                continue
            livelocks.append(visited[key])
    return Exploration(system=system, states=len(visited),
                       frontier_peak=frontier_peak, capped=capped,
                       terminal_count=len(terminals), deadlocks=deadlocks,
                       livelocks=livelocks)

# ---------------------------------------------------------------------------
# Orchestration: the ``--parameterized`` pass
# ---------------------------------------------------------------------------

#: Sizes probed above the abstraction floor when searching for a concrete
#: deadlock witness (the abstract counterexample covers "some n >= floor";
#: real bugs almost always bite within a few members of the floor).
WITNESS_SPAN = 4


def _sweep_start(model: ParamModel) -> int:
    """Smallest family size the verification claims cover.

    Sizes below every family's lower bound are semantically invalid
    (empty index ranges), and n = 1 degenerates most protocols (a ring of
    one node talks to itself), so coverage claims start at 2.
    """
    low = max((shape.low for shape in model.families.values()), default=1)
    return max(2, low)


def _confirm_deadlock(program, overrides, stats):
    from .witness import replay_deadlock
    stats["witnesses_replayed"] += 1
    return replay_deadlock(program, overrides)


def _emit_deadlock(report, stats, witness, exploration, config) -> None:
    blocked = exploration.blocked(config)
    label, line = blocked[0] if blocked else (report.script, 1)
    parts = ", ".join(lbl for lbl, _ in blocked) or "every process"
    size = ", ".join(f"{name} = {value}"
                     for name, value in sorted(witness.overrides.items())) \
        or "the declared size"
    report.emit(
        "SCR010", line, label,
        f"guaranteed family deadlock: with {size} the full cast blocks "
        f"({parts} cannot progress); confirmed by concrete replay under "
        f"the engine (seed {witness.seed})")
    stats["verdict"] = "unsafe"


def _emit_livelock(report, stats, overrides, exploration, config) -> None:
    blocked = exploration.blocked(config)
    label, line = blocked[0] if blocked else (report.script, 1)
    size = ", ".join(f"{name} = {value}"
                     for name, value in sorted(overrides.items())) \
        or "the declared size"
    report.emit(
        "SCR011", line, label,
        f"critical-set liveness violation: with {size} a reachable "
        f"configuration can never complete the protocol (no terminal "
        f"configuration is reachable from it); confirmed by exhaustive "
        f"concrete exploration")
    stats["verdict"] = "unsafe"


def _emit_inconclusive(report, stats, why: str) -> None:
    report.emit("SCR012", 1, report.script,
                f"parameterized verification is inconclusive: {why}")
    if stats["verdict"] == "safe":
        stats["verdict"] = "inconclusive"


def _record(stats, exploration) -> None:
    stats["states"] += exploration.states
    stats["frontier_peak"] = max(stats["frontier_peak"],
                                 exploration.frontier_peak)


def _concrete_pass(program, overrides, report, stats, max_states) -> bool:
    """Explore one concrete size exactly; True when a violation was found."""
    try:
        system = build_concrete_system(program, overrides)
    except Unsupported as why:
        _emit_inconclusive(report, stats, str(why))
        return False
    exploration = explore_system(system, max_states=max_states)
    _record(stats, exploration)
    if exploration.capped:
        _emit_inconclusive(
            report, stats,
            f"state bound ({max_states}) hit at "
            f"{overrides or 'the declared size'}")
        return False
    if exploration.deadlocks:
        witness = _confirm_deadlock(program, overrides, stats)
        if witness is not None:
            _emit_deadlock(report, stats, witness, exploration,
                           exploration.deadlocks[0])
        else:
            _emit_inconclusive(
                report, stats,
                f"abstract deadlock at {overrides} did not reproduce "
                f"under the engine")
        return True
    if exploration.livelocks:
        _emit_livelock(report, stats, overrides, exploration,
                       exploration.livelocks[0])
        return True
    return False


def run_parameterized(program, info: ProgramInfo, report,
                      max_states: int = DEFAULT_MAX_STATES) -> dict:
    """Run parameterized verification, emitting SCR010/SCR011/SCR012.

    Fills and returns ``report.parameterized`` — a JSON-able summary with
    the verdict ("safe" | "unsafe" | "inconclusive"), the strategy used,
    and the state-space counters summed in ``repro analyze``'s summary.
    """
    from .witness import confirm_livelock, find_deadlock_witness
    stats = {"verdict": "safe", "strategy": "fixed", "covers": None,
             "families": [], "swept": [], "states": 0, "frontier_peak": 0,
             "witnesses_replayed": 0}
    report.parameterized = stats
    try:
        model = detect_model(program, info)
    except Unsupported as why:
        stats["strategy"] = "unsupported"
        _emit_inconclusive(report, stats, str(why))
        return stats

    if model is None:
        # No parametric family: exhaustively verify the declared sizes.
        stats["covers"] = "declared sizes"
        _concrete_pass(program, {}, report, stats, max_states)
        return stats

    stats["strategy"] = model.strategy
    stats["families"] = [
        {"name": shape.name, "regime": shape.regime, "low": shape.low,
         "boundary_low": shape.bl, "boundary_high": shape.bh}
        for shape in sorted(model.families.values(),
                            key=lambda s: s.name)]
    start = _sweep_start(model)

    if model.strategy == "cutoff":
        # Ring regime: exact exploration of every size up to the cutoff
        # proves all larger sizes (see DESIGN.md §16).
        for n in range(start, model.cutoff + 1):
            stats["swept"].append(n)
            if _concrete_pass(program, {model.param: n}, report, stats,
                              max_states):
                return stats
        stats["covers"] = f"all {model.param} >= {start}"
        return stats

    # Symmetric regime: exact sweep below the abstraction floor, then one
    # abstract run covering every size at or above it.
    for n in range(start, model.floor):
        stats["swept"].append(n)
        if _concrete_pass(program, {model.param: n}, report, stats,
                          max_states):
            return stats
    try:
        system = build_abstract_system(program, info, model)
    except Unsupported as why:
        _emit_inconclusive(report, stats, str(why))
        return stats
    exploration = explore_system(system, max_states=max_states)
    _record(stats, exploration)
    if exploration.capped:
        _emit_inconclusive(
            report, stats,
            f"abstract state bound ({max_states}) hit")
        return stats
    if exploration.deadlocks:
        sizes = range(model.floor, model.floor + WITNESS_SPAN)
        stats["witnesses_replayed"] += len(sizes)
        witness = find_deadlock_witness(program, model.param, sizes)
        if witness is not None:
            _emit_deadlock(report, stats, witness, exploration,
                           exploration.deadlocks[0])
        else:
            _emit_inconclusive(
                report, stats,
                f"abstract deadlock found but no concrete witness in "
                f"{model.param} = {sizes.start}..{sizes.stop - 1}")
        return stats
    if exploration.livelocks:
        confirmed = None
        for n in range(model.floor, model.floor + WITNESS_SPAN):
            stats["witnesses_replayed"] += 1
            if confirm_livelock(program, {model.param: n}, max_states):
                confirmed = n
                break
        if confirmed is not None:
            _emit_livelock(report, stats, {model.param: confirmed},
                           exploration, exploration.livelocks[0])
        else:
            _emit_inconclusive(
                report, stats,
                "abstract liveness violation found but not reproduced "
                "concretely")
        return stats
    stats["covers"] = f"all {model.param} >= {start}"
    return stats
