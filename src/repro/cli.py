"""Command-line interface: paper figures and declarative scenarios.

Usage::

    repro-experiment fig5                 # fast variant of the Fig. 5 study
    repro-experiment fig8 --full          # paper-sized run counts
    repro-experiment fig4                 # = scenario run fig4_single_delay
    repro-experiment fig7                 # = report run fig7_speed
    repro-experiment all --seed 3         # everything
    repro-experiment list --json          # experiment ids + descriptions
    python -m repro fig5                  # module form

    repro-experiment scenario list                      # bundled scenarios
    repro-experiment scenario run fig4_single_delay     # run one scenario
    repro-experiment scenario validate my_scenario.toml # compile-check a file
    repro-experiment scenario sweep campaign_rate_sweep --jobs 4

    repro-experiment report list                        # bundled reports
    repro-experiment report run fig7_speed --cache-dir ~/.cache/repro
    repro-experiment report validate my_report.toml     # compile-check a file

    repro-experiment store ls --cache-dir ~/.cache/repro       # contents
    repro-experiment store migrate --cache-dir ~/.cache/repro  # pack shards
    repro-experiment store gc --cache-dir ~/.cache/repro       # prune orphans

    repro-experiment stats show run.jsonl        # telemetry span tree
    repro-experiment stats summarize run.jsonl   # hit rates, phase times
    repro-experiment stats diff a.jsonl b.jsonl  # compare two runs

    repro-experiment runs ls --cache-dir ~/.cache/repro    # run ledger
    repro-experiment runs show RUN_ID --cache-dir ~/.cache/repro
    repro-experiment runs tail -n 5 --cache-dir ~/.cache/repro

    repro-experiment perf record --cache-dir ~/.cache/repro --run latest
    repro-experiment perf history --cache-dir ~/.cache/repro
    repro-experiment perf check --cache-dir ~/.cache/repro  # trend gate

    repro-experiment golden --check       # verify the golden-trace corpus
    repro-experiment golden --regen       # regenerate tests/golden/

A figure id either runs its experiment driver in-process and prints the
result, or — for the figures in :data:`FIGURE_ALIASES` — runs the bundled
spec that reproduces it, exactly as ``scenario run``/``report run`` would.
Scenario sweeps and report runs execute through the parallel campaign
runtime (:mod:`repro.runtime`): ``--jobs N`` shards their independent runs
over N worker processes (``--jobs 0`` auto-detects the CPU count) and
``--cache-dir`` enables the content-addressed on-disk result store, so a
repeated invocation skips every already-simulated run.  Results are
bit-identical for a given seed regardless of ``--jobs``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

__all__ = ["FIGURE_ALIASES", "main", "build_parser", "add_run_flags",
           "open_store", "retry_policy", "run_observed"]

#: Paper figures reproduced by a bundled spec rather than a driver:
#: figure id -> (``scenario`` | ``report``, bundled spec name).
FIGURE_ALIASES = {
    "fig4": ("scenario", "fig4_single_delay"),
    "fig7": ("report", "fig7_speed"),
}


def jobs_arg(text: str) -> int:
    """``--jobs`` parser: non-negative int (0 = auto-detect CPU count)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = auto-detect CPU count), got {value}"
        )
    return value


def _non_negative(convert):
    """An argparse type: ``convert(text)``, rejected unless >= 0."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not value >= 0:  # also rejects NaN
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
        return value
    return parse


#: ``--retries`` parser: non-negative int.
retries_arg = _non_negative(int)
#: ``--retry-backoff`` parser: non-negative float seconds.
backoff_arg = _non_negative(float)


def open_store(cache_dir: "str | None"):
    """``--cache-dir`` of ``scenario``/``report`` runs: a writable store."""
    if cache_dir is None:
        return None
    from repro.runtime.store import ResultStore

    store = ResultStore(cache_dir)
    # Fail before the campaign starts, not after it computed results it
    # cannot persist.
    store.ensure_writable()
    return store


def retry_policy(args):
    """``--retries``/``--retry-backoff``: a retry policy, or ``None``."""
    if getattr(args, "retries", 0):
        from repro.runtime.retry import RetryPolicy

        return RetryPolicy(retries=args.retries,
                           backoff_s=args.retry_backoff)
    return None


def maybe_profiled(args, label: str, tracker=None):
    """Telemetry wiring for ``--profile`` / ``--telemetry-out`` runs.

    Returns a no-op context unless profiling was requested; profiled runs
    additionally persist their record next to the store artifacts when a
    cache dir is in play.  With a live run ``tracker`` the written
    telemetry path is recorded in the run's ledger entry.
    """
    if not (getattr(args, "profile", False) or args.telemetry_out):
        from contextlib import nullcontext

        return nullcontext()
    from repro import telemetry

    return telemetry.profiled(
        label, out=args.telemetry_out, cache_dir=args.cache_dir,
        on_write=tracker.set_telemetry if tracker is not None else None,
    )


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The run flags ``scenario run|sweep`` and ``report run`` share."""
    parser.add_argument("--jobs", type=jobs_arg, default=1, metavar="N",
                        help="worker processes for cache misses (0 = auto)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result store; cached runs "
                             "are loaded with zero engine invocations")
    parser.add_argument("--profile", action="store_true",
                        help="record telemetry (spans, cache hit rates) and "
                             "print a summary; results are unchanged")
    parser.add_argument("--telemetry-out", default=None, metavar="FILE",
                        help="write the run's telemetry JSONL here "
                             "(implies --profile); inspect with "
                             "'repro-experiment stats'")
    parser.add_argument("--progress", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="live progress line on stderr (default: auto "
                             "when stderr is a TTY)")
    parser.add_argument("--retries", type=retries_arg, default=0, metavar="N",
                        help="retry failed tasks up to N times with "
                             "deterministic seed-jittered backoff (results "
                             "are bit-identical to a first-attempt success)")
    parser.add_argument("--retry-backoff", type=backoff_arg, default=0.05,
                        metavar="SECONDS",
                        help="base backoff between retry attempts; doubles "
                             "per attempt (default: 0.05)")
    parser.add_argument("--stall-action", choices=["warn", "retry"],
                        default="warn",
                        help="watchdog response to stalled tasks: warn only, "
                             "or abandon the stalled block and re-dispatch "
                             "its tasks (default: warn)")
    parser.add_argument("--resume", default=None, metavar="RUN_ID",
                        help="resume an interrupted run: completed tasks "
                             "are served from the run's cache, and the new "
                             "ledger record links back via resumed_from "
                             "(requires --cache-dir)")


def _resume_target(args, kind: str, name: str, spec_key=None):
    """``--resume RUN_ID``: ``(ledger record, None)`` or ``(None, problem)``.

    The target must be a run of the same kind and name — and, when both
    runs have a spec key (``spec_key()`` computes this invocation's), of
    the same grid: resuming anything else would serve the wrong
    campaign's results from the old cache.
    """
    if not args.resume:
        return None, None
    if args.cache_dir is None:
        return None, ("--resume requires --cache-dir: completed tasks are "
                      "served from the result store of the interrupted run")
    from repro.obs.ledger import RunLedger

    try:
        record = RunLedger(args.cache_dir).find(args.resume)
    except KeyError as exc:
        return None, str(exc.args[0])
    if (record.get("kind"), record.get("name")) != (kind, name):
        return None, (f"run {record['id']} is a {record.get('kind')} of "
                      f"{record.get('name')!r}, not a {kind} of {name!r}")
    theirs = record.get("spec_key")
    ours = spec_key() if theirs and spec_key is not None else None
    if ours and ours != theirs:
        return None, (f"run {record['id']} swept a different grid "
                      f"(spec_key {theirs}, this invocation {ours}); pass "
                      "the same spec, --seed, and --engine to resume it")
    return record, None


def run_observed(args, kind: str, name: str, compute, show, *,
                 label: str, spec_key=None) -> int:
    """One observed CLI run; returns its exit status.

    Resolves ``--resume`` (a bad target exits 2 with a one-line
    ``<label> error``), then runs ``compute()`` under the run ledger and
    ``--profile`` telemetry and hands its result to
    ``show(result, tracker)``.  A :class:`~repro.runtime.store.StoreError`
    exits 2 with a one-line ``store error``.
    """
    resumed, problem = _resume_target(args, kind, name, spec_key)
    if problem is not None:
        print(f"{label} error: {problem}", file=sys.stderr)
        return 2
    from repro.obs import observe_run
    from repro.runtime.store import StoreError

    try:
        with observe_run(kind, name, cache_dir=args.cache_dir,
                         progress=args.progress) as tracker:
            if resumed is not None:
                tracker.set_resumed_from(resumed["id"])
            with maybe_profiled(args, kind, tracker):
                result = compute()
            show(result, tracker)
    except StoreError as exc:
        print(f"store error: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments import EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Reproduce the figures of 'Propagation and Decay of Injected "
            "One-Off Delays on Clusters' (CLUSTER 2019) on the built-in "
            "cluster simulator, or run declarative scenarios "
            "('repro-experiment scenario --help')."
        ),
        epilog=(
            "The 'scenario', 'report', 'store', 'stats', 'runs', and "
            "'perf' commands delegate to their own subcommands: "
            "repro-experiment scenario {list,validate,run,sweep}, "
            "repro-experiment report {list,validate,run}, "
            "repro-experiment store {ls,migrate,gc}, "
            "repro-experiment stats {show,summarize,diff,trace}, "
            "repro-experiment runs {ls,show,tail}, "
            "repro-experiment perf {record,history,diff,check} ..."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*sorted({*EXPERIMENTS, *FIGURE_ALIASES}), "all", "list",
                 "scenario", "report", "store", "stats", "runs", "perf",
                 "golden"],
        help=(
            "experiment id (paper figure), 'all', 'list', 'scenario' / "
            "'report' / 'store' / 'stats' / 'runs' / 'perf' (see epilog), "
            "or 'golden' (golden-trace corpus)"
        ),
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help=("paper-sized parameters (slower; default is a fast variant); "
              "fig4 and fig7 always run their bundled spec as declared"),
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (experiment drivers only)")
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable output (only for 'list')",
    )
    return parser


def _alias_description(name: str) -> str:
    command, bundled = FIGURE_ALIASES[name]
    if command == "scenario":
        from repro.scenarios.registry import load_bundled_scenario as load
    else:
        from repro.reports.registry import load_bundled_report as load
    return f"{load(bundled).description} ({command} run {bundled})"


def _list_experiments(as_json: bool) -> int:
    from repro.experiments import experiment_descriptions

    descriptions = experiment_descriptions()
    descriptions.update({name: _alias_description(name)
                         for name in FIGURE_ALIASES})
    if as_json:
        print(json.dumps(
            [{"id": name, "description": desc}
             for name, desc in sorted(descriptions.items())],
            indent=2,
        ))
        return 0
    width = max(len(name) for name in descriptions)
    for name in sorted(descriptions):
        print(f"{name:<{width}}  {descriptions[name]}")
    return 0


def _run_figure(name: str, args) -> None:
    """Run one figure id and print its output; raises on failure."""
    if name not in FIGURE_ALIASES:
        from repro.experiments import run_experiment

        print(run_experiment(name, fast=not args.full, seed=args.seed).render())
        return
    command, bundled = FIGURE_ALIASES[name]
    status = main([command, "run", bundled])
    if status:
        raise RuntimeError(f"'{command} run {bundled}' exited with status "
                           f"{status}")


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "scenario":
        from repro.scenarios.cli import scenario_main

        return scenario_main(argv[1:])
    if argv and argv[0] == "report":
        from repro.reports.cli import report_main

        return report_main(argv[1:])
    if argv and argv[0] == "store":
        from repro.runtime.cli import store_main

        return store_main(argv[1:])
    if argv and argv[0] == "stats":
        from repro.telemetry.cli import stats_main

        return stats_main(argv[1:])
    if argv and argv[0] == "runs":
        from repro.obs.cli import runs_main

        return runs_main(argv[1:])
    if argv and argv[0] == "perf":
        from repro.perf.cli import perf_main

        return perf_main(argv[1:])
    if argv and argv[0] == "golden":
        from repro.golden import golden_main

        return golden_main(argv[1:])

    args = build_parser().parse_args(argv)
    if args.experiment in ("scenario", "report", "store", "stats", "runs",
                           "perf", "golden"):
        # Reachable only when the subcommand is not the first token (e.g.
        # 'repro-experiment --seed 3 scenario'); its own arguments cannot
        # be recovered once argparse consumed the flags.
        print(f"usage: repro-experiment {args.experiment} ... "
              f"('{args.experiment}' must come first)", file=sys.stderr)
        return 2
    if args.experiment == "list":
        return _list_experiments(args.as_json)

    from repro.experiments import EXPERIMENTS

    run_all = args.experiment == "all"
    names = sorted({*EXPERIMENTS, *FIGURE_ALIASES}) if run_all \
        else [args.experiment]

    failures: "list[tuple[str, BaseException]]" = []
    for name in names:
        t0 = time.perf_counter()
        try:
            _run_figure(name, args)
        except Exception as exc:  # noqa: BLE001 — keep the campaign going
            elapsed = time.perf_counter() - t0
            failures.append((name, exc))
            print(f"\n[{name} FAILED after {elapsed:.1f}s: {exc}]\n")
            continue
        elapsed = time.perf_counter() - t0
        print(f"\n[{name} completed in {elapsed:.1f}s]\n")

    if run_all:
        n_ok = len(names) - len(failures)
        print(f"[summary: {n_ok}/{len(names)} experiments succeeded]")
    if failures:
        for name, exc in failures:
            print(f"[FAILED {name}: {type(exc).__name__}: {exc}]")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
