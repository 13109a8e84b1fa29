"""Script definitions: the builder for the paper's central construct.

A :class:`ScriptDef` declares a script's roles (singletons, closed families,
open families), their data parameters, its initiation/termination policies,
and its critical role sets.  Role bodies are attached with the
:meth:`ScriptDef.role` / :meth:`ScriptDef.role_family` decorators::

    from repro.core import (Initiation, Mode, Param, ScriptDef, Termination)

    broadcast = ScriptDef("star_broadcast",
                          initiation=Initiation.DELAYED,
                          termination=Termination.DELAYED)

    @broadcast.role("sender", params=[Param("data", Mode.IN)])
    def sender(ctx, data):
        for i in range(1, 6):
            yield from ctx.send(("recipient", i), data)

    @broadcast.role_family("recipient", range(1, 6),
                           params=[Param("data", Mode.OUT)])
    def recipient(ctx, data):
        data.value = yield from ctx.receive("sender")

Scripts are as generic as the host language allows (Section II): a
``ScriptDef`` is an ordinary Python value, so "generic" scripts are plain
functions returning fresh definitions, and multiple concurrent *instances*
of one definition are created with :meth:`ScriptDef.instance`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from ..errors import ScriptDefinitionError
from ..runtime import Scheduler
from .params import Param
from .policies import Initiation, Termination, UnfilledPolicy
from .roles import (RoleBody, RoleDecl, RoleFamily, RoleId, RoleSpec,
                    expand_role_ids, family_member, is_family_member)


class ScriptDef:
    """Declaration of a script: roles, parameters, policies, critical sets."""

    def __init__(self, name: str,
                 initiation: Initiation = Initiation.DELAYED,
                 termination: Termination = Termination.DELAYED,
                 unfilled: UnfilledPolicy = UnfilledPolicy.DISTINGUISHED):
        if not name:
            raise ScriptDefinitionError("script name must be nonempty")
        self.name = name
        self.initiation = initiation
        self.termination = termination
        self.unfilled = unfilled
        self.declarations: dict[str, RoleDecl] = {}
        self._critical_sets: list[frozenset[Any]] = []

    # ------------------------------------------------------------------
    # Role declaration
    # ------------------------------------------------------------------

    def _register(self, decl: RoleDecl) -> None:
        if decl.name in self.declarations:
            raise ScriptDefinitionError(
                f"script {self.name!r}: duplicate role {decl.name!r}")
        self.declarations[decl.name] = decl

    def role(self, name: str, params: Sequence[Param] = ()
             ) -> Callable[[RoleBody], RoleBody]:
        """Decorator declaring a singleton role with body ``fn(ctx, **params)``."""
        def decorator(fn: RoleBody) -> RoleBody:
            self._register(RoleSpec(name=name, body=fn, params=tuple(params)))
            return fn
        return decorator

    def role_family(self, name: str, indices: Iterable[int] | None = None,
                    params: Sequence[Param] = (), min_count: int = 0,
                    max_count: int | None = None
                    ) -> Callable[[RoleBody], RoleBody]:
        """Decorator declaring an indexed role family.

        ``indices`` fixes a closed family; ``indices=None`` declares an
        open-ended family bounded by ``min_count``/``max_count``.
        """
        def decorator(fn: RoleBody) -> RoleBody:
            family_indices = tuple(indices) if indices is not None else None
            self._register(RoleFamily(
                name=name, body=fn, params=tuple(params),
                indices=family_indices, min_count=min_count,
                max_count=max_count))
            return fn
        return decorator

    def add_role(self, name: str, body: RoleBody,
                 params: Sequence[Param] = ()) -> None:
        """Non-decorator form of :meth:`role`."""
        self._register(RoleSpec(name=name, body=body, params=tuple(params)))

    def add_role_family(self, name: str, body: RoleBody,
                        indices: Iterable[int] | None = None,
                        params: Sequence[Param] = (), min_count: int = 0,
                        max_count: int | None = None) -> None:
        """Non-decorator form of :meth:`role_family`."""
        family_indices = tuple(indices) if indices is not None else None
        self._register(RoleFamily(
            name=name, body=body, params=tuple(params),
            indices=family_indices, min_count=min_count,
            max_count=max_count))

    # ------------------------------------------------------------------
    # Critical role sets
    # ------------------------------------------------------------------

    def critical_role_set(self, *items: Any) -> None:
        """Add one alternative critical role set.

        Each item is a singleton role name, a concrete member ``(family,
        index)``, or a family name — a closed family name expands to all of
        its members; an open family name requires ``min_count`` members.
        Multiple calls add alternative sets: a performance may begin when
        *any* one of them is consistently filled.
        """
        expanded: set[Any] = set()
        for item in items:
            decl = self.declarations.get(item) if isinstance(item, str) else None
            if isinstance(decl, RoleFamily):
                if decl.open:
                    expanded.add(decl.name)
                else:
                    expanded.update(decl.role_ids)
            elif isinstance(decl, RoleSpec):
                expanded.add(item)
            elif self._valid_role_id(item):
                expanded.add(item)
            else:
                raise ScriptDefinitionError(
                    f"script {self.name!r}: unknown critical item {item!r}")
        if not expanded:
            raise ScriptDefinitionError("critical role set must be nonempty")
        self._critical_sets.append(frozenset(expanded))

    def _valid_role_id(self, role_id: RoleId) -> bool:
        if isinstance(role_id, str):
            return role_id in self.declarations
        if is_family_member(role_id):
            decl = self.declarations.get(role_id[0])
            return isinstance(decl, RoleFamily) and decl.contains(role_id)
        return False

    @property
    def critical_sets(self) -> list[frozenset[Any]]:
        """The declared critical sets, or the implicit all-roles set.

        "In case no such set is specified, it is taken to mean that the
        entire collection of roles is critical" — for open families that
        means at least ``min_count`` members.
        """
        return self._critical_sets_over(self.closed_role_ids)

    def _critical_sets_over(self, closed_role_ids: frozenset[RoleId]
                            ) -> list[frozenset[Any]]:
        """:attr:`critical_sets`, given :attr:`closed_role_ids` expanded."""
        if self._critical_sets:
            return list(self._critical_sets)
        implicit: set[Any] = set(closed_role_ids)
        implicit.update(name for name, decl in self.declarations.items()
                        if isinstance(decl, RoleFamily) and decl.open)
        if not implicit:
            raise ScriptDefinitionError(
                f"script {self.name!r} declares no roles")
        return [frozenset(implicit)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def closed_role_ids(self) -> frozenset[RoleId]:
        """All statically known role ids (open-family members excluded)."""
        return frozenset(expand_role_ids(self.declarations.values()))

    @property
    def closed_families(self) -> dict[str, tuple[int, ...]]:
        """Closed families: name -> index tuple."""
        return {name: decl.indices
                for name, decl in self.declarations.items()
                if isinstance(decl, RoleFamily) and not decl.open}

    @property
    def open_families(self) -> dict[str, RoleFamily]:
        """Open families by name."""
        return {name: decl for name, decl in self.declarations.items()
                if isinstance(decl, RoleFamily) and decl.open}

    def declaration_for(self, role_id: RoleId) -> RoleDecl:
        """The declaration governing ``role_id`` (or a bare family name)."""
        if isinstance(role_id, str):
            decl = self.declarations.get(role_id)
            if decl is None:
                raise ScriptDefinitionError(
                    f"script {self.name!r}: no role {role_id!r}")
            return decl
        if is_family_member(role_id):
            decl = self.declarations.get(role_id[0])
            if isinstance(decl, RoleFamily) and decl.contains(role_id):
                return decl
        raise ScriptDefinitionError(
            f"script {self.name!r}: no role {role_id!r}")

    # ------------------------------------------------------------------
    # Instantiation
    # ------------------------------------------------------------------

    def instance(self, scheduler: Scheduler, name: str | None = None,
                 **options: Any) -> "ScriptInstance":
        """Create an independent instance of this script on ``scheduler``.

        Multiple instances of one script coexist, "in the same sense that
        Ada allows for multiple instances of a generic object"; concurrent
        independent broadcasts use separate instances.

        The instance takes the script's shape as it is now: its roles,
        families and critical sets.  Roles or critical sets declared
        afterwards apply only to instances created afterwards.
        """
        from .instance import ScriptInstance
        return ScriptInstance(self, scheduler, name=name, **options)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ScriptDef {self.name!r} roles={list(self.declarations)} "
                f"{self.initiation.value}/{self.termination.value}>")
