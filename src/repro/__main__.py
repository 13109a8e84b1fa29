"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures``            — list the paper's figures shipped as sources;
* ``show <figure>``      — print a figure's script-language source;
* ``check <file>``       — parse and semantically check a script file;
* ``analyze <files>``    — full static analysis: index-aware communication
  graph, guaranteed-deadlock detection, critical-set feasibility; stable
  ``SCRnnn`` diagnostic codes, ``--json`` for deterministic JSON,
  ``--strict`` to fail on warnings, ``--figures`` for the paper corpus,
  ``--parameterized`` to prove the script safe for every family size;
* ``format <file>``      — pretty-print a script file (round-trippable);
* ``demo broadcast``     — run a broadcast and print the delivery table;
* ``demo lock``          — run the Figure 5 lock-manager workload;
* ``demo election``      — run a ring leader election;
* ``chaos <scenario>``   — soak a scenario under seeded fault injection
  (in ``chaos recover`` crashed processes are restarted with backoff
  and aborted performances retried, and the report adds their counters;
  ``--kill9`` SIGKILLs a journaled subprocess mid-run, resumes its
  journal and proves the resumed run commits the identical rendezvous
  sequence;
  ``--explore`` switches to systematic fault-space exploration: fault
  schedules anchored at a probe run's injection points are generated
  under ``--budget``, each run is journaled, resumed and judged by every
  oracle, and any failure is delta-debugged to a minimal counterexample
  JSON that ``--replay-plan`` re-executes; ``--describe-plan`` prints
  the fault plan a plan-less run of the seed would install);
* ``replay <journal>``   — resume a durable performance journal:
  deterministically re-run its recorded scenario, validate every frame,
  and continue past the crash point;
* ``trace <scenario>``   — run an instrumented scenario and export its
  span tree as Chrome trace-event JSON (plus optional JSONL);
* ``stats <scenario>``   — run a scenario and print its metrics summary;
* ``profile <scenario>`` — attribute a scenario's run time to kernel
  phases.

Every ``<scenario>`` is an entry of the catalogue in
:mod:`repro.scenarios`.

Exit codes for the file-checking commands (``check``/``analyze``/
``format``): 0 clean, 1 findings, 2 usage or parse/semantic error.

The CLI is a thin shell over the library; every command is available
programmatically (see the modules referenced in each handler).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ScriptLangError
from .lang import analyze, format_program, parse_script
from .lang.figures import FIGURES


def cmd_figures(_args: argparse.Namespace) -> int:
    """List the shipped figure sources."""
    for key, (title, _source) in FIGURES.items():
        print(f"{key:<6} {title}")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    """Print a figure's script-language source."""
    entry = FIGURES.get(args.figure)
    if entry is None:
        print(f"unknown figure {args.figure!r}; try: {', '.join(FIGURES)}",
              file=sys.stderr)
        return 2
    print(entry[1].strip())
    return 0


def _load_program(path: str):
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return parse_script(source)


def cmd_check(args: argparse.Namespace) -> int:
    """Parse and semantically check a script file."""
    try:
        program = _load_program(args.file)
        info = analyze(program)
    except ScriptLangError as error:
        print(f"{args.file}: {error}", file=sys.stderr)
        return 2
    roles = []
    for role in program.roles:
        if role.is_family:
            low, high = info.family_bounds[role.name]
            roles.append(f"{role.name}[{low}..{high}]")
        else:
            roles.append(role.name)
    print(f"{args.file}: SCRIPT {program.name} OK "
          f"({program.initiation.lower()}/{program.termination.lower()}; "
          f"roles: {', '.join(roles)})")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run the full static analysis over script files."""
    from .analysis import analyze_source, dump_report_json, figure_corpus
    from .analysis.diagnostics import summary_lines
    targets: list[tuple[str, str]] = []
    if args.figures:
        targets.extend(figure_corpus())
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as handle:
                targets.append((path, handle.read()))
        except OSError as error:
            print(f"{path}: {error}", file=sys.stderr)
            return 2
    if not targets:
        print("analyze: no inputs (pass script files and/or --figures)",
              file=sys.stderr)
        return 2
    reports = []
    for label, source in targets:
        try:
            reports.append(analyze_source(
                source, label=label, parameterized=args.parameterized,
                max_states=args.max_states))
        except ScriptLangError as error:
            print(f"{label}: {error}", file=sys.stderr)
            return 2
    errors = sum(report.error_count for report in reports)
    warnings = sum(report.warning_count for report in reports)
    if args.json:
        print(dump_report_json(reports))
    else:
        for report in reports:
            if report.clean:
                verdict = ""
                if report.parameterized is not None:
                    covers = report.parameterized["covers"] or \
                        report.parameterized["strategy"]
                    verdict = f" (proved safe: {covers})"
                print(f"{report.label}: clean{verdict}")
            else:
                for line in report.lines():
                    print(line)
        for line in summary_lines(reports):
            print(line)
    if errors or (args.strict and warnings):
        return 1
    return 0


def cmd_format(args: argparse.Namespace) -> int:
    """Pretty-print a script file."""
    try:
        program = _load_program(args.file)
    except ScriptLangError as error:
        print(f"{args.file}: {error}", file=sys.stderr)
        return 2
    print(format_program(program))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """Run one of the built-in demo scenarios."""
    if args.scenario == "broadcast":
        from .scripts import run_broadcast
        received = run_broadcast(args.n, args.strategy, value="demo",
                                 seed=args.seed)
        print(f"{args.strategy} broadcast to {args.n} recipients:")
        for index, value in sorted(received.items()):
            print(f"  recipient[{index}] <- {value!r}")
        return 0
    if args.scenario == "lock":
        from .obs.scenarios import LOCK_DEMO_OPS, run_demo_lock
        statuses = run_demo_lock(args.seed).results["driver"]
        print("lock manager (k=3, one lock to read, k locks to write):")
        for (owner, role, item, op), status in zip(LOCK_DEMO_OPS, statuses):
            print(f"  {owner:<6} {role:<7} {op:<8} {item} -> {status}")
        return 0
    if args.scenario == "election":
        from .scripts import run_election
        ids = list(range(1, args.n + 1))
        ids[args.seed % args.n], ids[-1] = ids[-1], ids[args.seed % args.n]
        leaders = run_election(ids, seed=args.seed)
        print(f"ring election over ids {ids}: leader {max(ids)} "
              f"(seen by all {len(leaders)} stations: "
              f"{set(leaders.values()) == {max(ids)}})")
        return 0
    print(f"unknown demo {args.scenario!r}", file=sys.stderr)
    return 2


def cmd_chaos(args: argparse.Namespace) -> int:
    """Soak or explore a scenario under deterministic fault injection."""
    if args.describe_plan:
        return _chaos_mode(args, _chaos_describe_plan, planned=True)
    if args.kill9:
        return _chaos_kill9(args)
    if args.replay_plan:
        return _chaos_replay_plan(args)
    if args.explore:
        return _chaos_mode(args, _chaos_explore, explorable=True)
    return _chaos_mode(args, _chaos_soak, planned=True)


def _chaos_mode(args: argparse.Namespace, handler, **needs: bool) -> int:
    """Run ``handler`` if the scenario has what the mode ``needs``;
    otherwise exit 2 naming the scenarios that do."""
    from .errors import ChaosInvariantError
    from .scenarios import lookup
    try:
        lookup(args.script, **needs)
    except ChaosInvariantError as error:
        print(f"chaos: {error}", file=sys.stderr)
        return 2
    return handler(args)


def _chaos_soak(args: argparse.Namespace) -> int:
    """``chaos <scenario>``: the seeded soak, plus ``--verify``."""
    from .faults import soak, verify_determinism
    report = soak(args.script, runs=args.runs, seed=args.seed)
    for line in report.lines():
        print(line)
    if args.trace_out:
        _write_trace(args.trace_out, report.base_trace, args.seed)
    if args.verify:
        same = verify_determinism(args.script, seed=args.seed)
        print(f"  determinism   seed {args.seed} replayed "
              f"{'identically' if same else 'DIFFERENTLY'}")
        if not same:
            return 1
    return 0


def _write_trace(path: str, trace: str, seed: int) -> None:
    """Write a base seed's formatted trace to ``path`` (CI artifact)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(trace + "\n")
    print(f"  trace         wrote base seed {seed} to {path}")


def _chaos_describe_plan(args: argparse.Namespace) -> int:
    """``chaos --describe-plan``: print the seed's implied fault plan."""
    from .faults import plan_for_seed
    plan = plan_for_seed(args.script, args.seed)
    print(f"fault plan: {args.script}, seed {args.seed}")
    lines = plan.describe()
    for line in lines:
        print(f"  {line}")
    if not lines:
        print("  (no fault events)")
    return 0


def _chaos_explore(args: argparse.Namespace) -> int:
    """``chaos --explore``: systematic fault-space search + shrinking."""
    import json

    from .faults.explore import explore
    report = explore(args.script, seed=args.seed, budget=args.budget)
    for line in report.lines():
        print(line)
    if args.trace_out:
        _write_trace(args.trace_out, report.base_trace, args.seed)
    if report.counterexample is not None:
        ce = report.counterexample
        out = args.plan_out or f"counterexample-{args.script}.json"
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(json.dumps(ce.to_jsonable(), sort_keys=True,
                                    indent=2) + "\n")
        print(f"  plan          wrote {out}")
        print(f"  repro         {ce.repro_command(out)}")
        return 1
    return 0


def _chaos_replay_plan(args: argparse.Namespace) -> int:
    """``chaos --replay-plan``: re-execute a saved counterexample."""
    from .errors import ChaosInvariantError
    from .faults.explore import check_saved_schedule
    try:
        check = check_saved_schedule(args.replay_plan)
    except (ChaosInvariantError, OSError, ValueError) as error:
        print(f"replay-plan: {error}", file=sys.stderr)
        return 2
    for line in check.lines():
        print(line)
    return 1 if check.reproduced else 0


def _chaos_kill9(args: argparse.Namespace) -> int:
    """``chaos --kill9``: SIGKILL a journaled subprocess, then resume."""
    import tempfile

    from .errors import PersistError, ResumeMismatch
    from .persist import kill9_resume
    with tempfile.TemporaryDirectory(prefix="repro-kill9-") as tmp:
        work_dir = args.journal or tmp
        try:
            report = kill9_resume(args.script, args.seed, work_dir,
                                  torn=args.torn)
        except (PersistError, ResumeMismatch) as error:
            print(f"kill9: {error}", file=sys.stderr)
            return 1
        for line in report.lines():
            print(line)
        return 0 if report.ok else 1


def cmd_replay(args: argparse.Namespace) -> int:
    """Resume a durable journal: validate its frames, then continue."""
    from .errors import PersistError, ResumeMismatch
    try:
        from .persist import resume
        report = resume(args.journal)
    except (PersistError, ResumeMismatch) as error:
        print(f"replay: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"replay: {error}", file=sys.stderr)
        return 2
    for line in report.lines():
        print(line)
    return 0


def cmd_kill9_child(args: argparse.Namespace) -> int:
    """Hidden harness verb: run journaled, then SIGKILL ourselves.

    Only ever invoked by :func:`repro.persist.chaos.kill9_resume`; exits
    by SIGKILL under normal operation, or with the sentinel code when the
    run finished before the kill point.
    """
    import json

    from .persist import run_kill9_child
    options = json.loads(args.options) if args.options else None
    return run_kill9_child(args.script, args.seed, args.journal,
                           args.kill_after, options=options)


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a scenario and export its span tree (Chrome trace + JSONL)."""
    from .obs import (build_spans, dump_chrome_trace, dump_spans_jsonl,
                      run_scenario, span_tree_lines)
    run = run_scenario(args.scenario, seed=args.seed, n=args.n)
    spans = build_spans(run.scheduler.tracer.snapshot())
    out = args.out or f"trace-{args.scenario}.json"
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write(dump_chrome_trace(spans))
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8", newline="") as handle:
            handle.write(dump_spans_jsonl(spans))
    print(f"{run.name} (seed {args.seed}): {run.headline}")
    print(f"wrote {len(spans)} spans to {out}"
          + (f" and {args.jsonl}" if args.jsonl else ""))
    print("open in Perfetto (https://ui.perfetto.dev) or chrome://tracing")
    if args.tree:
        print()
        for line in span_tree_lines(spans):
            print(line)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run a scenario and print its metrics-registry summary."""
    import json

    from .obs import jsonable, run_scenario
    run = run_scenario(args.scenario, seed=args.seed, n=args.n)
    if args.json:
        print(json.dumps(jsonable(run.metrics.to_dict()), sort_keys=True,
                         indent=2))
        return 0
    print(f"{run.name} (seed {args.seed}): {run.headline}")
    print()
    for line in run.metrics.summary_lines():
        print(line)
    return 0


def _load_reports(path: str) -> list[dict]:
    """The saved profile report at ``path``, or every ``*.json`` in it."""
    import json
    from pathlib import Path

    files = (sorted(Path(path).glob("*.json")) if Path(path).is_dir()
             else [Path(path)])
    return [json.loads(file.read_text(encoding="utf-8")) for file in files]


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile a scenario's kernel hot path, or diff two saved profiles."""
    import json

    from .obs import (build_spans, diff_attributions, jsonable,
                      merge_chrome_events, profile_scenario, to_chrome_trace)
    if args.diff:
        old_path, new_path = args.diff
        lines = diff_attributions(_load_reports(old_path),
                                  _load_reports(new_path))
        if not lines:
            print(f"no comparable wall attributions between "
                  f"{old_path} and {new_path}")
            return 0
        for line in lines:
            print(line)
        return 0
    if args.scenario is None:
        print("error: a scenario is required unless --diff is given",
              file=sys.stderr)
        return 2
    run, report = profile_scenario(args.scenario, seed=args.seed, n=args.n,
                                   deterministic=args.deterministic)
    # --deterministic makes even the wall section byte-stable, so include
    # it then too: the saved JSON stays diffable without sacrificing the
    # stability guarantee.
    wall = args.wall or args.deterministic
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="") as handle:
            handle.write(json.dumps(jsonable(report.to_dict(wall=wall)),
                                    sort_keys=True, indent=2) + "\n")
    if args.flame:
        with open(args.flame, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(report.flame_lines()) + "\n")
    if args.chrome:
        spans = build_spans(run.scheduler.tracer.snapshot())
        document = to_chrome_trace(spans)
        merged = merge_chrome_events(document, report.chrome_events())
        with open(args.chrome, "w", encoding="utf-8", newline="") as handle:
            handle.write(merged)
    print(f"{run.name} (seed {args.seed}, n {args.n}): {run.headline}")
    print()
    for line in report.summary_lines():
        print(line)
    written = [path for path in (args.json, args.flame, args.chrome) if path]
    if written:
        print()
        print(f"wrote {', '.join(written)}")
        if args.flame:
            print("flamegraph: drop the file on "
                  "https://www.speedscope.app")
        if args.chrome:
            print("trace: open in Perfetto (https://ui.perfetto.dev)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scripts (Francez & Hailpern, PODC 1983) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="list shipped figure sources"
                   ).set_defaults(handler=cmd_figures)

    show = sub.add_parser("show", help="print a figure's source")
    show.add_argument("figure", choices=sorted(FIGURES))
    show.set_defaults(handler=cmd_show)

    check = sub.add_parser("check", help="parse + check a script file")
    check.add_argument("file")
    check.set_defaults(handler=cmd_check)

    analyze_cmd = sub.add_parser(
        "analyze", help="full static analysis of script files")
    analyze_cmd.add_argument("files", nargs="*",
                             help="script-language source files")
    analyze_cmd.add_argument("--figures", action="store_true",
                             help="also analyze the shipped paper figures")
    analyze_cmd.add_argument("--strict", action="store_true",
                             help="exit nonzero on warnings, not only "
                                  "errors")
    analyze_cmd.add_argument("--json", action="store_true",
                             help="emit deterministic diagnostics JSON")
    analyze_cmd.add_argument("--parameterized", action="store_true",
                             help="also run the counter-abstraction model "
                                  "checker: prove deadlock freedom and "
                                  "critical-set liveness for every family "
                                  "size (SCR010/SCR011/SCR012)")
    analyze_cmd.add_argument("--max-states", type=int, default=None,
                             help="state bound before the parameterized "
                                  "checker reports inconclusive")
    analyze_cmd.set_defaults(handler=cmd_analyze)

    fmt = sub.add_parser("format", help="pretty-print a script file")
    fmt.add_argument("file")
    fmt.set_defaults(handler=cmd_format)

    from .scenarios import names
    size_help = "scenario size (recipients, stations, members or clients)"

    demo = sub.add_parser("demo", help="run a built-in scenario")
    demo.add_argument("scenario", choices=["broadcast", "lock", "election"])
    demo.add_argument("--n", type=int, default=5)
    demo.add_argument("--strategy", default="star",
                      choices=["star", "star_nondet", "pipeline", "tree"])
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(handler=cmd_demo)

    chaos = sub.add_parser("chaos", help="chaos-soak a scenario under "
                                         "seeded fault injection")
    chaos.add_argument("script", nargs="?", default="broadcast",
                       choices=names(),
                       help="scenario (soak, --verify and --describe-plan "
                            "need a fault plan; --explore a fault "
                            "contract; --kill9 takes any)")
    chaos.add_argument("--runs", type=int, default=100,
                       help="number of seeded runs (default 100)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed; run i uses seed+i")
    chaos.add_argument("--explore", action="store_true",
                       help="systematic fault-space exploration: generate "
                            "schedules at the probe run's injection "
                            "points, judge each run with every oracle, "
                            "shrink any failure to a minimal "
                            "counterexample (exits 1 on counterexample)")
    chaos.add_argument("--budget", type=int, default=100,
                       help="with --explore: number of schedules to "
                            "examine (default 100)")
    chaos.add_argument("--plan-out", default=None, metavar="PATH",
                       help="with --explore: where to write the "
                            "counterexample JSON (default "
                            "counterexample-<script>.json)")
    chaos.add_argument("--replay-plan", default=None, metavar="PATH",
                       help="re-execute a saved counterexample JSON and "
                            "report whether it still fails (exits 1 when "
                            "it reproduces)")
    chaos.add_argument("--describe-plan", action="store_true",
                       help="print the fault plan a plan-less run of "
                            "the seed would install, and exit")
    chaos.add_argument("--trace-out", default=None,
                       help="write the base seed's formatted trace to "
                            "this path (CI artifact)")
    chaos.add_argument("--verify", action="store_true",
                       help="also replay the base seed twice and compare "
                            "traces")
    chaos.add_argument("--kill9", action="store_true",
                       help="SIGKILL a journaled subprocess run of the "
                            "base seed mid-performance, resume the "
                            "crashed journal and verify the "
                            "committed-rendezvous sequence matches an "
                            "uninterrupted run")
    chaos.add_argument("--torn", action="store_true",
                       help="with --kill9: additionally tear the "
                            "journal's final frame before resuming")
    chaos.add_argument("--journal", default=None,
                       help="with --kill9: directory to keep the oracle "
                            "and crash journals in (default: a temp dir)")
    chaos.set_defaults(handler=cmd_chaos)

    replay = sub.add_parser("replay", help="resume a durable performance "
                                           "journal and validate it")
    replay.add_argument("journal", help="path to a .jrnl file written by "
                                        "a journaled chaos run")
    replay.set_defaults(handler=cmd_replay)

    # Hidden: the kill -9 harness's child half (dies by SIGKILL).
    child = sub.add_parser("_kill9-child")
    child.add_argument("script", choices=names())
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--journal", required=True)
    child.add_argument("--kill-after", type=int, required=True,
                       dest="kill_after")
    child.add_argument("--options", default=None)
    child.set_defaults(handler=cmd_kill9_child)

    trace = sub.add_parser("trace", help="run a scenario and export its "
                                         "span tree (Chrome trace JSON)")
    trace.add_argument("scenario", choices=names())
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--n", type=int, default=5, help=size_help)
    trace.add_argument("--out", default=None,
                       help="Chrome trace output path "
                            "(default trace-<scenario>.json)")
    trace.add_argument("--jsonl", default=None,
                       help="also dump spans as JSONL to this path")
    trace.add_argument("--tree", action="store_true",
                       help="print the span tree to stdout as well")
    trace.set_defaults(handler=cmd_trace)

    stats = sub.add_parser("stats", help="run a scenario and print its "
                                         "metrics summary")
    stats.add_argument("scenario", choices=names())
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--n", type=int, default=5, help=size_help)
    stats.add_argument("--json", action="store_true",
                       help="emit the summary as JSON instead of text")
    stats.set_defaults(handler=cmd_stats)

    profile = sub.add_parser(
        "profile", help="profile a scenario's kernel hot path (phase "
                        "attribution, flamegraph, Chrome trace)")
    profile.add_argument("scenario", nargs="?", choices=names(),
                         help="scenario to profile (omit with --diff)")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--n", type=int, default=5, help=size_help)
    profile.add_argument("--json", default=None, metavar="PATH",
                         help="write the report as JSON (deterministic "
                              "counters only unless --wall)")
    profile.add_argument("--wall", action="store_true",
                         help="include measured wall-clock attribution "
                              "in the JSON report")
    profile.add_argument("--flame", default=None, metavar="PATH",
                         help="write collapsed-stack flamegraph lines "
                              "(speedscope / flamegraph.pl)")
    profile.add_argument("--chrome", default=None, metavar="PATH",
                         help="write the span trace with the profiler "
                              "lane merged in (Perfetto)")
    profile.add_argument("--deterministic", action="store_true",
                         help="use a tick clock: every export becomes "
                              "byte-stable for the seed")
    profile.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                         default=None,
                         help="explain a regression: compare two saved "
                              "profile JSON files, or two directories of "
                              "them (every *.json: repeated runs, "
                              "compared by median), instead of running")
    profile.set_defaults(handler=cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
