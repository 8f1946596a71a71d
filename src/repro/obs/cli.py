"""``repro-experiment runs`` subcommands: query the run ledger.

::

    repro-experiment runs ls --cache-dir DIR [--json] [--name N] [--status S]
    repro-experiment runs show RUN_ID --cache-dir DIR [--json] [--telemetry]
    repro-experiment runs tail --cache-dir DIR [-n N] [--json]

``ls`` lists every recorded run (filterable by scenario/report name and
status); ``show`` reconstructs one run's full provenance — spec key,
seed root, engine, cache economics, worker health (stalls, heartbeats,
peak RSS), failure summaries, telemetry file, artifact paths — from its
ledger record (unambiguous id prefixes work), and with ``--telemetry``
renders the linked telemetry summary inline; ``tail`` shows the most
recent records.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.obs.ledger import RunLedger

__all__ = ["runs_main", "build_runs_parser"]


def build_runs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment runs",
        description="Query the run ledger written under <cache-dir>/runs/.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ls = sub.add_parser("ls", help="list recorded runs")
    p_ls.add_argument("--cache-dir", required=True, metavar="DIR",
                      help="cache directory holding the runs/ ledger")
    p_ls.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable output")
    p_ls.add_argument("--name", default=None, metavar="NAME",
                      help="only runs of this scenario/report name")
    p_ls.add_argument("--status", default=None,
                      choices=["ok", "failed", "interrupted"],
                      help="only runs with this status")

    p_show = sub.add_parser("show", help="full provenance of one run")
    p_show.add_argument("run_id", metavar="RUN_ID",
                        help="run id (unambiguous prefixes work)")
    p_show.add_argument("--cache-dir", required=True, metavar="DIR",
                        help="cache directory holding the runs/ ledger")
    p_show.add_argument("--json", action="store_true", dest="as_json",
                        help="print the raw ledger record")
    p_show.add_argument("--telemetry", action="store_true",
                        dest="with_telemetry",
                        help="also render the run's linked telemetry "
                             "summary (phase breakdown, hit rates)")

    p_tail = sub.add_parser("tail", help="most recent runs")
    p_tail.add_argument("--cache-dir", required=True, metavar="DIR",
                        help="cache directory holding the runs/ ledger")
    p_tail.add_argument("-n", type=int, default=10, metavar="N",
                        help="how many records (default 10)")
    p_tail.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
    return parser


def _fmt_when(unix: "float | None") -> str:
    if unix is None:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(unix)) + "Z"


def _fmt_rate(rate: "float | None") -> str:
    return "-" if rate is None else f"{rate * 100:.0f}%"


def _ls_line(r: dict) -> str:
    return (f"{r['id']:<34} {r['status']:<6} {r.get('kind') or '-':<14} "
            f"{r.get('name') or '-':<28} "
            f"{r.get('n_tasks', 0):>5} task(s) "
            f"cache {_fmt_rate(r.get('cache_hit_rate')):>4}  "
            f"{r.get('wall_s', 0.0):>7.2f}s  "
            f"{_fmt_when(r.get('started_unix'))}")


def _print_records(records: "list[dict]", as_json: bool, root) -> int:
    if as_json:
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    if not records:
        print(f"[no runs recorded in {root}]")
        return 0
    for r in records:
        print(_ls_line(r))
    print(f"[{len(records)} run(s) in {root}]")
    return 0


def _cmd_ls(args) -> int:
    ledger = RunLedger(args.cache_dir)
    records = list(ledger.records())
    if args.name is not None:
        records = [r for r in records if r.get("name") == args.name]
    if args.status is not None:
        records = [r for r in records if r.get("status") == args.status]
    return _print_records(records, args.as_json, ledger.root)


def _cmd_tail(args) -> int:
    if args.n < 1:
        print(f"runs error: -n must be >= 1, got {args.n}", file=sys.stderr)
        return 2
    ledger = RunLedger(args.cache_dir)
    return _print_records(ledger.tail(args.n), args.as_json, ledger.root)


def _cmd_show(args) -> int:
    ledger = RunLedger(args.cache_dir)
    try:
        r = ledger.find(args.run_id)
    except KeyError as exc:
        print(f"runs error: {exc.args[0]}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(r, indent=2, sort_keys=True))
        return 0
    print(f"=== run {r['id']} ===")
    rows = [
        ("status", r.get("status")),
        ("kind", r.get("kind")),
        ("name", r.get("name")),
        ("engine", r.get("engine")),
        ("jobs", r.get("jobs")),
        ("spec key", r.get("spec_key")),
        ("seed root", r.get("seed_root")),
        ("tasks", r.get("n_tasks")),
        ("cached", r.get("n_cached")),
        ("executed", r.get("n_executed")),
        ("failed", r.get("n_failed")),
        ("cache hit rate", _fmt_rate(r.get("cache_hit_rate"))),
        ("wall time", f"{r.get('wall_s', 0.0):.3f}s"),
        ("started", _fmt_when(r.get("started_unix"))),
        ("finished", _fmt_when(r.get("finished_unix"))),
        ("events", r.get("n_events")),
        ("telemetry", r.get("telemetry") or "-"),
    ]
    # v2 worker-health fields: only shown when the record carries them,
    # so v1 records render exactly as before.
    if r.get("version", 1) >= 2:
        rows.extend([
            ("stalls", r.get("n_stalls")),
            ("heartbeats", r.get("n_heartbeats")),
            ("worker rss peak", _fmt_bytes(r.get("worker_rss_peak_bytes"))),
        ])
    # v3 fault-tolerance economics, gated the same way.
    if r.get("version", 1) >= 3:
        rows.extend([
            ("retried", r.get("n_retried")),
            ("quarantined", r.get("n_quarantined")),
            ("pool respawns", r.get("n_pool_respawns")),
            ("retry wasted", f"{r.get('retry_wasted_s', 0.0):.3f}s"),
            ("resumed from", r.get("resumed_from") or "-"),
        ])
    for label, value in rows:
        print(f"  {label:<16} {value if value is not None else '-'}")
    artifacts = r.get("artifacts") or []
    print(f"  {'artifacts':<16} {len(artifacts)}")
    for path in artifacts:
        print(f"    {path}")
    for failure in r.get("failures") or []:
        print(f"  failure: {failure.splitlines()[0]}")
    if args.with_telemetry:
        return _show_telemetry(r)
    return 0


def _fmt_bytes(n: "int | None") -> str:
    if not n:
        return "-"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n:.1f} GiB"


def _show_telemetry(record: dict) -> int:
    """Render the run's linked telemetry inline (``runs show --telemetry``).

    Reuses the stats CLI's loader so a missing/unreadable/empty file
    produces the same one-line ``stats error`` diagnostics users already
    know from ``stats show`` — not a traceback, not a silent skip.
    """
    from repro.telemetry.cli import StatsError, _load
    from repro.telemetry.sinks import render_summary

    path = record.get("telemetry")
    if not path:
        print("stats error: run has no linked telemetry (was it run with "
              "--profile?)", file=sys.stderr)
        return 1
    try:
        snap = _load(path)
    except StatsError as exc:
        print(f"stats error: {exc}", file=sys.stderr)
        return 1
    print()
    print(render_summary(snap))
    return 0


def runs_main(argv: "list[str] | None" = None) -> int:
    args = build_runs_parser().parse_args(argv)
    return {"ls": _cmd_ls, "show": _cmd_show,
            "tail": _cmd_tail}[args.command](args)


if __name__ == "__main__":
    sys.exit(runs_main())
