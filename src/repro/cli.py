"""Command-line interface: paper figures and declarative scenarios.

Usage::

    repro-experiment fig4                 # fast variant of the Fig. 4 study
    repro-experiment fig8 --full          # paper-sized run counts
    repro-experiment all --seed 3         # everything
    repro-experiment list --json          # experiment ids + descriptions
    repro-experiment ext_campaign --jobs 4 --cache-dir ~/.cache/repro
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

Campaign-style experiments and scenario sweeps execute through the
parallel campaign runtime (:mod:`repro.runtime`): ``--jobs N`` shards
their independent runs over N worker processes (``--jobs 0`` auto-detects
the CPU count) and ``--cache-dir`` enables the content-addressed on-disk
result store, so a repeated invocation skips every already-simulated run.
Results are bit-identical for a given ``--seed`` regardless of ``--jobs``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from repro.experiments import (
    EXPERIMENTS,
    RuntimeOptions,
    experiment_descriptions,
    run_experiment,
)

__all__ = ["main", "build_parser", "backoff_arg", "jobs_arg",
           "maybe_profiled", "open_store", "retries_arg", "retry_policy"]


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


def build_parser() -> argparse.ArgumentParser:
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
        choices=[*sorted(EXPERIMENTS), "all", "list", "scenario", "report",
                 "store", "stats", "runs", "perf", "golden"],
        help=(
            "experiment id (paper figure), 'all', 'list', 'scenario' / "
            "'report' / 'store' / 'stats' / 'runs' / 'perf' (see epilog), "
            "or 'golden' (golden-trace corpus)"
        ),
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-sized parameters (slower; default is a fast variant)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--jobs",
        type=jobs_arg,
        default=1,
        metavar="N",
        help=(
            "worker processes for campaign experiments "
            "(default 1 = serial, 0 = auto-detect CPU count)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result store; repeated runs skip cached work",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything even if --cache-dir has results",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable output (only for 'list')",
    )
    return parser


def _list_experiments(as_json: bool) -> int:
    descriptions = experiment_descriptions()
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

    run_all = args.experiment == "all"
    names = sorted(EXPERIMENTS) if run_all else [args.experiment]
    runtime = RuntimeOptions(
        jobs=args.jobs, cache_dir=args.cache_dir, use_cache=not args.no_cache
    )

    failures: "list[tuple[str, BaseException]]" = []
    for name in names:
        t0 = time.perf_counter()
        try:
            result = run_experiment(
                name, fast=not args.full, seed=args.seed, runtime=runtime
            )
        except Exception as exc:  # noqa: BLE001 — keep the campaign going
            elapsed = time.perf_counter() - t0
            failures.append((name, exc))
            traceback.print_exc(file=sys.stderr)
            print(f"\n[{name} FAILED after {elapsed:.1f}s: {exc}]\n")
            continue
        elapsed = time.perf_counter() - t0
        print(result.render())
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
