"""``repro-experiment store`` subcommands: result-store maintenance.

::

    repro-experiment store ls --cache-dir DIR [--json]
    repro-experiment store migrate --cache-dir DIR [--dry-run]
    repro-experiment store gc --cache-dir DIR [--dry-run]

``ls`` lists every cached task result with its spec key, owning task
function, derived seed, and on-disk size, straight from the shard
indexes.  ``migrate`` packs the per-file records older versions wrote
into the store's shards (get() returns what the record held; the
originals remain until ``gc`` prunes them) — until then such a cache
reads as misses.  ``gc`` prunes unreferenced files — per-file records
already packed or unreadable, temp files abandoned by interrupted
writes, telemetry JSONL no ledger record references, and torn
run-ledger records — without ever touching a live record.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.runtime.store import ResultStore

__all__ = ["store_main", "build_store_parser"]


def _human_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover - unreachable


def build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment store",
        description="Inspect and maintain the content-addressed result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ls = sub.add_parser("ls", help="list cached results (key, task, size)")
    p_ls.add_argument("--cache-dir", required=True, metavar="DIR",
                      help="result store directory")
    p_ls.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable output")

    p_mig = sub.add_parser("migrate",
                           help="pack per-file records of older versions "
                                "into shards (byte-identical reads)")
    p_mig.add_argument("--cache-dir", required=True, metavar="DIR",
                       help="result store directory")
    p_mig.add_argument("--dry-run", action="store_true",
                       help="report what would be packed without writing")

    p_gc = sub.add_parser("gc", help="prune unreferenced files (packed or "
                                     "torn per-file records, temp files)")
    p_gc.add_argument("--cache-dir", required=True, metavar="DIR",
                      help="result store directory")
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be removed without deleting")
    p_gc.add_argument("--min-age", type=float, default=3600.0,
                      metavar="SECONDS",
                      help="spare files younger than this "
                           "(a concurrent campaign may be mid-write; "
                           "default 3600)")
    return parser


def _cmd_ls(args) -> int:
    store = ResultStore(args.cache_dir)
    entries = list(store.entries())
    if args.as_json:
        print(json.dumps(
            [
                {"key": e.key, "fn": e.fn, "seed": e.seed,
                 "n_arrays": e.n_arrays, "json_bytes": e.json_bytes,
                 "npz_bytes": e.npz_bytes, "total_bytes": e.total_bytes,
                 "mtime": e.mtime}
                for e in entries
            ],
            indent=2,
        ))
        return 0
    if not entries:
        print(f"[empty store at {store.root}]")
        return 0
    for e in entries:
        arrays = f" +{e.n_arrays} array(s)" if e.n_arrays else ""
        print(f"{e.key}  {_human_bytes(e.total_bytes):>10}  "
              f"{e.fn or '(no spec)'}{arrays}")
    total = sum(e.total_bytes for e in entries)
    print(f"[{len(entries)} result(s), {_human_bytes(total)} in "
          f"{store.root}]")
    return 0


def _cmd_migrate(args) -> int:
    store = ResultStore(args.cache_dir)
    stats = store.migrate(dry_run=args.dry_run)
    verb = "would pack" if args.dry_run else "packed"
    print(f"[{verb} {stats.n_packed} record(s) "
          f"({_human_bytes(stats.bytes_packed)}) into shards; "
          f"{stats.n_already} already packed, {stats.n_skipped} unreadable "
          f"(left for gc); originals remain until 'store gc']")
    return 0


def _cmd_gc(args) -> int:
    store = ResultStore(args.cache_dir)
    stats = store.gc(dry_run=args.dry_run, min_age_s=args.min_age)
    verb = "would remove" if args.dry_run else "removed"
    print(f"[{verb} {stats.n_removed} file(s): {stats.n_legacy} legacy "
          f"per-file, {stats.n_tmp} temp file(s), "
          f"{stats.n_orphan_telemetry} orphan telemetry, "
          f"{stats.n_torn_runs} torn run record(s); "
          f"{_human_bytes(stats.bytes_freed)} freed]")
    return 0


def store_main(argv: "list[str] | None" = None) -> int:
    args = build_store_parser().parse_args(argv)
    return {"ls": _cmd_ls, "migrate": _cmd_migrate,
            "gc": _cmd_gc}[args.command](args)


if __name__ == "__main__":
    sys.exit(store_main())
