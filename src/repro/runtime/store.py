"""Content-addressed on-disk result store for campaign runs.

Every task result is addressed by the task's content hash
(:func:`repro.runtime.spec.spec_key`), so a rerun of the same campaign —
same function, parameters, and derived seed — finds its results already
on disk and skips the simulation entirely, while any change to the spec
transparently misses the cache.

Results live in packed shards (:mod:`repro.runtime.shards`): append-only
shard files of length-prefixed records with raw array segments, a
sidecar index per shard, and memory-mapped zero-copy reads.  Listing a
10k-record store parses a handful of index files instead of touching
10k records.  Every writing process appends to its own shard file, so
concurrent campaign processes sharing one cache directory never observe
torn records.

Caches written by older versions hold one JSON record per task under a
two-level fan-out (``<key[:2]>/<key>.json``) plus an ``.npz`` side-car
for ndarray fields.  The store does not read them: they are import
input for :meth:`ResultStore.migrate`, which packs them with
byte-identical ``get()`` results, after which :meth:`ResultStore.gc`
prunes the originals.  Until then such a cache reads as misses.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro import telemetry
from repro.runtime.shards import PackedShards, SHARD_DIR, StoreError

__all__ = ["GcStats", "MigrateStats", "ResultStore", "StoreEntry",
           "StoreError"]

_ARRAYS_MARKER = "__arrays__"
_KEY_CHARS = frozenset("0123456789abcdef")

#: Exceptions an unreadable per-file record can raise.  ``zipfile.
#: BadZipFile`` (garbage/torn zip) and ``ValueError`` (torn JSON, damaged
#: npy member) are *not* ``OSError`` subclasses; ``AttributeError`` and
#: ``TypeError`` cover JSON that parses to something other than a record.
_LEGACY_ERRORS = (OSError, KeyError, ValueError, TypeError, AttributeError,
                  zipfile.BadZipFile)


def _check_key(key: str) -> None:
    """Reject anything but a lowercase hex content hash."""
    if len(key) < 2 or not _KEY_CHARS.issuperset(key):
        raise ValueError(f"malformed store key: {key!r}")


def _split_arrays(value: Mapping) -> "tuple[dict, dict]":
    """Separate ndarray fields (array payloads) from plain JSON fields."""
    plain, arrays = {}, {}
    for name, item in value.items():
        if not isinstance(name, str):
            raise TypeError(f"result field names must be str, got {name!r}")
        if isinstance(item, np.ndarray):
            arrays[name] = item
        elif isinstance(item, np.generic):
            plain[name] = item.item()
        else:
            plain[name] = item
    return plain, arrays


def _read_legacy(path: Path) -> "tuple[dict, dict] | None":
    """``(record, value)`` of one per-file record, or ``None`` if unreadable.

    ``path`` is a ``<key[:2]>/<key>.json`` record of
    ``{"version", "key", "value", "__arrays__", "spec"}``; the fields
    ``__arrays__`` names live in the ``<key>.npz`` side-car next to it.
    A torn record, or a missing, corrupt or truncated side-car, makes
    the whole record unreadable.
    """
    try:
        record = json.loads(path.read_text())
        value = dict(record.get("value", {}))
        fields = record.get(_ARRAYS_MARKER, [])
        if fields:
            with np.load(path.with_suffix(".npz")) as npz:
                for name in fields:
                    value[name] = npz[name]
    except _LEGACY_ERRORS:
        return None
    return record, value


@dataclass(frozen=True)
class StoreEntry:
    """Metadata of one stored result (no array payloads loaded).

    ``fn`` and ``seed`` come from the provenance ``spec`` the executor
    records next to each value; they are ``None`` for records written
    without one.  Sizes come from the shard index (``npz_bytes`` is the
    array segment) and ``mtime`` is the owning shard file's.
    """

    key: str
    json_bytes: int
    npz_bytes: int
    fn: "str | None"
    seed: "int | None"
    n_arrays: int
    mtime: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.json_bytes + self.npz_bytes


@dataclass(frozen=True)
class GcStats:
    """What one :meth:`ResultStore.gc` pass removed."""

    n_legacy: int  # per-file files already packed or unreadable
    n_tmp: int  # temp files abandoned by interrupted writes
    bytes_freed: int
    n_orphan_telemetry: int = 0  # telemetry/ files no ledger record names
    n_torn_runs: int = 0  # unreadable runs/ ledger records

    @property
    def n_removed(self) -> int:
        return (self.n_legacy + self.n_tmp + self.n_orphan_telemetry
                + self.n_torn_runs)


@dataclass(frozen=True)
class MigrateStats:
    """What one :meth:`ResultStore.migrate` pass packed."""

    n_packed: int  # per-file records appended to shards
    n_already: int  # keys already present in the packed index
    n_skipped: int  # unreadable records left for gc
    bytes_packed: int  # legacy bytes now also represented in shards

    @property
    def n_records(self) -> int:
        return self.n_packed + self.n_already + self.n_skipped


class ResultStore:
    """A directory of task results addressed by spec content hash.

    ``root`` is the cache directory (created on first write; ``~`` is
    expanded).
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root).expanduser()
        self._shards = PackedShards(self.root / SHARD_DIR)

    def __contains__(self, key: str) -> bool:
        _check_key(key)
        return key in self._shards

    # -- read ---------------------------------------------------------

    def get(self, key: str, mmap: bool = False) -> "dict | None":
        """Load the stored result for ``key``, or ``None`` on a miss.

        A record whose bytes are unreadable (a torn shard tail) counts
        as a miss: the task is simply recomputed and the record
        rewritten.

        With ``mmap=True``, array fields are returned as read-only
        zero-copy views into the shard's memory map; callers that mutate
        result arrays must use the default copying read.
        """
        _check_key(key)
        with telemetry.span("store.get") as sp:
            found = self._shards.read(key, mmap=mmap)
            if found is None:
                telemetry.count("store.get.misses")
                return None
            record, value = found
            entry = self._shards.lookup(key)
            nbytes = (entry.json_len + entry.arr_len) if entry else 0
            telemetry.count("store.get.hits")
            telemetry.count("store.read_bytes", nbytes)
            sp.set(bytes=nbytes, n_arrays=len(record.get("arrays", {})))
        return value

    # -- write --------------------------------------------------------

    def put(self, key: str, value: Mapping, spec: "Mapping | None" = None) -> Path:
        """Persist one task result; returns the shard path.

        ``value`` must be a mapping of str field names to JSON-able data
        or :class:`numpy.ndarray`.  ``spec`` (e.g. ``RunSpec.describe()``)
        is recorded alongside for provenance and debuggability.  The
        write goes to this process's own append-only shard, so it is
        safe under concurrent writers.
        """
        if not isinstance(value, Mapping):
            raise TypeError(
                f"task results must be mappings, got {type(value).__name__}; "
                "return a dict of named fields from the task function"
            )
        _check_key(key)
        with telemetry.span("store.put") as sp:
            plain, arrays = _split_arrays(value)
            path = self._shards.append(key, plain, arrays, spec=spec)
            entry = self._shards.lookup(key)
            nbytes = (entry.json_len + entry.arr_len) if entry else 0
            telemetry.count("store.puts")
            telemetry.count("store.write_bytes", nbytes)
            sp.set(bytes=nbytes, n_arrays=len(arrays))
        return path

    def ensure_writable(self) -> None:
        """Fail fast with :class:`StoreError` if the store cannot accept
        writes — unwritable/uncreatable root, root that is a file, or a
        full disk.  Probes with a real temp-file write so the failure
        surfaces before a campaign burns compute it cannot persist.
        """
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".writable.")
            try:
                os.write(fd, b"probe")
            finally:
                os.close(fd)
                os.unlink(tmp)
        except OSError as exc:
            raise StoreError(
                f"cache directory {self.root} is not writable: {exc}"
            ) from exc

    # -- migration ----------------------------------------------------

    def _legacy_records(self) -> "list[Path]":
        """The per-file JSON records under the root's two-level fan-out."""
        return sorted(self.root.glob("??/*.json"))

    def migrate(self, dry_run: bool = False) -> MigrateStats:
        """Pack every readable per-file record into shards.

        The per-file originals are left in place; :meth:`gc` prunes any
        original whose key is already packed.  ``get()`` after migration
        returns exactly what the per-file record held — plain fields
        round-trip through canonical JSON and array fields through their
        raw bytes with dtype/shape/order preserved.  Unreadable records
        are skipped and left for :meth:`gc`.

        With ``dry_run`` nothing is written and the stats report what a
        real pass would pack.
        """
        n_packed = n_already = n_skipped = packed_bytes = 0
        with telemetry.span("store.migrate") as sp:
            for path in self._legacy_records():
                key = path.stem
                if key in self._shards:
                    n_already += 1
                    continue
                legacy = _read_legacy(path)
                if legacy is None:
                    n_skipped += 1
                    continue
                record, value = legacy
                if not dry_run:
                    plain, arrays = _split_arrays(value)
                    self._shards.append(key, plain, arrays,
                                        spec=record.get("spec"))
                n_packed += 1
                packed_bytes += path.stat().st_size
                if record.get(_ARRAYS_MARKER):
                    packed_bytes += path.with_suffix(".npz").stat().st_size
            sp.set(n_packed=n_packed, n_already=n_already,
                   n_skipped=n_skipped)
            telemetry.count("store.migrate.packed", n_packed)
        return MigrateStats(n_packed=n_packed, n_already=n_already,
                            n_skipped=n_skipped, bytes_packed=packed_bytes)

    # -- maintenance --------------------------------------------------

    def keys(self) -> Iterator[str]:
        """All content hashes currently stored, sorted."""
        return self._shards.keys()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every stored record; returns how many keys were removed.

        Unlike :meth:`gc`, this is unconditional.  Unmigrated per-file
        records are not stored records and are left alone.
        """
        n = len(self)
        self._shards._close_writer()
        shutil.rmtree(self._shards.root, ignore_errors=True)
        self._shards = PackedShards(self.root / SHARD_DIR)
        return n

    def entries(self) -> "Iterator[StoreEntry]":
        """Metadata of every stored record, from the shard indexes alone —
        no record bytes are touched."""
        shard_mtimes: "dict[str, float]" = {}
        for entry in self._shards.entries():
            if entry.shard not in shard_mtimes:
                shard_mtimes[entry.shard] = \
                    self._shards.shard_mtime(entry.shard)
            yield StoreEntry(
                key=entry.key,
                json_bytes=entry.json_len,
                npz_bytes=entry.arr_len,
                fn=entry.fn,
                seed=entry.seed,
                n_arrays=entry.n_arrays,
                mtime=shard_mtimes[entry.shard],
            )

    def gc(self, dry_run: bool = False,
           min_age_s: float = 3600.0) -> GcStats:
        """Prune unreferenced files; returns what was (or would be) removed.

        Garbage accumulates in a long-lived cache directory and is never
        read back by :meth:`get` or the run ledger:

        - per-file (legacy) files whose key is already packed — what
          :meth:`migrate` leaves behind — and every other file in the
          per-file fan-out that is not part of a readable record: torn
          JSON, records with a missing or corrupt side-car, side-cars
          without a record, and temp files of interrupted writes;
        - temp files abandoned by interrupted writes in ``shards/`` and
          ``runs/``;
        - ``telemetry/`` JSONL files no valid ledger record references —
          profiled runs whose ledger entry is gone (or that predate the
          ledger) leave their telemetry behind forever otherwise;
        - torn/unparseable ``runs/`` ledger records.

        Files younger than ``min_age_s`` are left alone: a concurrent
        process may be mid-write (a profiled run writes its telemetry
        before its ledger record), and unlinking its in-flight files
        would lose data it is about to reference.  Packed records, valid
        unmigrated per-file records *and valid ledger records* are never
        touched — the ledger is provenance, not cache.  Emptied fan-out
        directories are removed at the end of a real (non-dry-run) pass.

        With ``dry_run`` nothing is deleted and the stats report what a
        real pass would remove.
        """
        n_legacy = n_tmp = n_tele = n_torn_runs = freed = 0
        if not self.root.exists():
            return GcStats(0, 0, 0)

        now = time.time()

        def remove(path: Path) -> int:
            try:
                size = path.stat().st_size
            except OSError:
                return 0
            if not dry_run:
                path.unlink(missing_ok=True)
            return size

        def old_enough(path: Path) -> bool:
            try:
                return now - path.stat().st_mtime >= min_age_s
            except OSError:
                return False  # already gone (e.g. the writer finished)

        if self._shards.exists:
            for path in sorted(self._shards.root.glob(".*")):
                if old_enough(path):
                    n_tmp += 1
                    freed += remove(path)

        packed = set(self._shards.keys())
        live: "set[Path]" = set()
        for path in self._legacy_records():
            if path.stem not in packed and _read_legacy(path) is not None:
                live.update((path, path.with_suffix(".npz")))
        for path in sorted(self.root.glob("??/*")):
            if path not in live and path.is_file() and old_enough(path):
                n_legacy += 1
                freed += remove(path)

        # Run-ledger maintenance: collect the telemetry files valid
        # records reference, drop torn records and abandoned temp files.
        referenced: "set[str]" = set()
        runs_dir = self.root / "runs"
        if runs_dir.exists():
            for path in sorted(runs_dir.iterdir()):
                if path.name.startswith("."):
                    if old_enough(path):
                        n_tmp += 1
                        freed += remove(path)
                    continue
                try:
                    record = json.loads(path.read_text())
                    tele = record.get("telemetry")
                except (OSError, ValueError, AttributeError):
                    if old_enough(path):
                        n_torn_runs += 1
                        freed += remove(path)
                    continue
                if tele:
                    referenced.add(Path(tele).name)

        # Telemetry files whose run is gone from the ledger (or that
        # never had a ledger record) are unreachable: nothing maps a
        # JSONL filename back to a run except the records scanned above.
        tele_dir = self.root / "telemetry"
        if tele_dir.exists():
            for path in sorted(tele_dir.iterdir()):
                if not old_enough(path):
                    continue
                if path.name.startswith("."):
                    n_tmp += 1
                    freed += remove(path)
                elif path.name not in referenced:
                    n_tele += 1
                    freed += remove(path)

        if not dry_run:
            for sub in self.root.glob("??"):
                if sub.is_dir() and not any(sub.iterdir()):
                    sub.rmdir()

        stats = GcStats(n_legacy=n_legacy, n_tmp=n_tmp, bytes_freed=freed,
                        n_orphan_telemetry=n_tele, n_torn_runs=n_torn_runs)
        telemetry.count("store.gc.removed", stats.n_removed)
        telemetry.count("store.gc.bytes_freed", freed)
        return stats
