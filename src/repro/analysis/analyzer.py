"""The analyzer entry points: run every check, produce a :class:`Report`.

:func:`analyze_program` is the library API; :func:`analyze_source` adds
parsing, and :func:`figure_corpus` lists the shipped figure sources — the
CLI and CI both build on these.

Check inventory (codes in :mod:`repro.analysis.diagnostics`):

* index checks (SCR003 out-of-bounds, SCR004 self-targeting) and the
  index-aware unmatched-communication check (SCR001/SCR002) over the
  unrolled communication graph of :mod:`repro.analysis.graph`;
* guaranteed-deadlock analysis (SCR005/SCR006/SCR007) over per-instance
  guaranteed prefixes in :mod:`repro.analysis.deadlock`;
* critical-set feasibility (SCR008/SCR009) via
  :mod:`repro.analysis.critical`.
"""

from __future__ import annotations

from ..lang import ast_nodes as ast
from ..lang.analysis import ProgramInfo, analyze
from ..lang.figures import FIGURES
from ..lang.parser import parse_script
from .critical import analyze_critical
from .deadlock import analyze_deadlocks
from .diagnostics import Report
from .graph import (CommSite, collect_sites, instance_label,
                    is_self_targeting, out_of_bounds, terminated_partners)


def _check_indices(sites: list[CommSite], info: ProgramInfo,
                   report: Report) -> set[int]:
    """SCR003/SCR004; returns the site ids excluded from matching."""
    excluded: set[int] = set()
    for position, site in enumerate(sites):
        if out_of_bounds(site, info):
            excluded.add(position)
            low, high = info.family_bounds[site.partner_role]
            verb = "sends to" if site.kind == "send" else "receives from"
            report.emit(
                "SCR003", site.line, instance_label(site.owner),
                f"{instance_label(site.owner)} {verb} "
                f"{site.partner_role}[{site.partner_index}], outside the "
                f"family bounds {low}..{high}; the partner is absent in "
                f"every performance",
                partner=f"{site.partner_role}[{site.partner_index}]")
        elif is_self_targeting(site):
            excluded.add(position)
            verb = "sends to" if site.kind == "send" else "receives from"
            report.emit(
                "SCR004", site.line, instance_label(site.owner),
                f"{instance_label(site.owner)} {verb} itself; a "
                f"synchronous rendezvous needs two distinct instances, so "
                f"this communication can never commit",
                partner=instance_label(site.owner))
    return excluded


def _check_unmatched(program: ast.ScriptProgram, info: ProgramInfo,
                     sites: list[CommSite], excluded: set[int],
                     terminated_refs: dict[str, set[str]],
                     report: Report) -> None:
    """SCR001/SCR002: per-instance sends/receives with no possible partner.

    A send from instance A to instance B is matched when B's body contains
    a receive whose source could be A (an unresolved index counts as
    "could be"); symmetrically for receives.  Sites whose owning role
    consults the partner's ``terminated`` status are exempt — absence is
    being handled, the paper's sanctioned pattern.
    """
    sends: list[tuple[int, CommSite]] = []
    receives: list[tuple[int, CommSite]] = []
    for position, site in enumerate(sites):
        if position in excluded:
            continue
        (sends if site.kind == "send" else receives).append((position, site))

    family_bounds = info.family_bounds

    def candidates(site: CommSite) -> list:
        """Instances the site's partner reference could denote."""
        bounds = family_bounds.get(site.partner_role)
        if bounds is None:
            return [(site.partner_role, None)]
        if site.partner_index is not None:
            return [(site.partner_role, site.partner_index)]
        low, high = bounds
        return [(site.partner_role, i) for i in range(low, high + 1)]

    def could_match(site: CommSite, opposite: list[tuple[int, CommSite]]
                    ) -> bool:
        owner_name, owner_index = site.owner
        for target in candidates(site):
            if target == site.owner:
                continue               # self-pairing never commits
            for _position, other in opposite:
                if other.owner != target:
                    continue
                if other.partner_role != owner_name:
                    continue
                if other.partner_index is not None \
                        and other.partner_index != owner_index:
                    continue
                return True
        return False

    for _position, site in sends:
        if site.partner_role in terminated_refs.get(site.owner[0], set()):
            continue
        if not could_match(site, receives):
            report.emit(
                "SCR001", site.line, instance_label(site.owner),
                f"{instance_label(site.owner)} sends to "
                f"{site.partner_role!r}, but no instance of "
                f"{site.partner_role!r} ever receives from "
                f"{site.owner[0]!r} (send can never rendezvous)",
                partner=site.partner_role)
    for _position, site in receives:
        if site.partner_role in terminated_refs.get(site.owner[0], set()):
            continue
        if not could_match(site, sends):
            report.emit(
                "SCR002", site.line, instance_label(site.owner),
                f"{instance_label(site.owner)} receives from "
                f"{site.partner_role!r}, but no instance of "
                f"{site.partner_role!r} ever sends to "
                f"{site.owner[0]!r} (receive can never rendezvous)",
                partner=site.partner_role)


def analyze_program(program: ast.ScriptProgram,
                    info: ProgramInfo | None = None,
                    label: str = "<script>", *,
                    parameterized: bool = False,
                    max_states: int | None = None) -> Report:
    """Run every static check over a parsed (semantically valid) program.

    With ``parameterized=True`` the counter-abstraction model checker of
    :mod:`repro.analysis.param` also runs, proving deadlock freedom and
    critical-set liveness for *every* family size (SCR010/SCR011/SCR012)
    and filling ``report.parameterized`` with its state-space counters.

    Raises :class:`~repro.errors.SemanticError` if the program fails the
    semantic analysis the checks build on.
    """
    if info is None:
        info = analyze(program)
    report = Report(label=label, script=program.name)
    sites = collect_sites(program, info)
    terminated_refs = terminated_partners(program)
    excluded = _check_indices(sites, info, report)
    _check_unmatched(program, info, sites, excluded, terminated_refs, report)
    analyze_deadlocks(program, info, report)
    analyze_critical(program, info, sites, terminated_refs, report)
    if parameterized:
        from .param import DEFAULT_MAX_STATES, run_parameterized
        run_parameterized(program, info, report,
                          max_states=max_states or DEFAULT_MAX_STATES)
    return report


def analyze_source(source: str, label: str = "<script>", *,
                   parameterized: bool = False,
                   max_states: int | None = None) -> Report:
    """Parse, semantically check, and analyze script-language source.

    Raises :class:`~repro.errors.ScriptLangError` (parse or semantic) when
    the source is not a valid program — static analysis needs one.
    """
    program = parse_script(source)
    return analyze_program(program, label=label,
                           parameterized=parameterized,
                           max_states=max_states)


def figure_corpus() -> list[tuple[str, str]]:
    """The shipped paper figures as (label, source) pairs."""
    return [(key, source) for key, (_title, source) in FIGURES.items()]

