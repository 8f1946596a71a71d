"""Packed shards: the result store's on-disk format (append-only files + index).

Every record :class:`repro.runtime.store.ResultStore` holds lives in a
shard under ``<root>/shards/``.  A *shard* is an append-only file of
packed result records.  Each entry is self-describing — a fixed binary
header, a length-prefixed JSON record (plain fields, spec provenance,
and array descriptors), and a raw array segment holding every ndarray
field's bytes::

    offset 0   magic          b"RPS1"
    offset 4   crc32          of the JSON payload (uint32 LE)
    offset 8   json_len       bytes of JSON payload (uint32 LE)
    offset 12  arr_len        bytes of array segment (uint64 LE)
    offset 20  JSON payload   {"version", "key", "value", "arrays", "spec"}
    ...        array segment  raw C/F-contiguous array bytes, 8-aligned

Arrays are stored as raw bytes with their dtype/shape/order recorded in
the JSON descriptor, so a read can reconstruct them as **zero-copy
views** into a memory map of the shard — slicing a dense timing matrix
out of a multi-gigabyte shard touches only the pages it spans.

Next to each shard lives a sidecar index ``<shard>.idx``: one JSON line
per entry (key, offset, lengths, and the listing metadata ``entries()``
needs) appended by the shard's single writer.  The index is a derived
cache, never the source of truth: a reader validates it against the
shard's byte coverage and recovers any uncovered tail — a torn index, a
missing index, or an index that diverges from the shard is repaired by
scanning the self-describing shard entries (:meth:`PackedShards.refresh`
does this transparently; :meth:`PackedShards.rebuild_index` rewrites the
sidecars atomically, the same temp-file + ``os.replace`` pattern
``RunLedger.append`` uses).

Concurrent writers are safe by construction: every writing process
appends to its **own** shard file (named by pid + random suffix), so two
processes never contend on one file, while readers see each other's
entries by re-scanning grown shards on a miss.  A fork inheriting a
store object gets a fresh shard file the first time it writes.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import uuid
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro import telemetry
from repro.runtime import chaos

__all__ = ["PackedShards", "SHARD_DIR", "SHARD_FORMAT_VERSION",
           "ShardEntry", "StoreError"]


class StoreError(RuntimeError):
    """The result store cannot do its job — said clearly, not as a deep
    traceback from inside a write path.

    Raised when the cache directory is unwritable (``ResultStore.
    ensure_writable`` — the CLIs call it before starting a campaign) and
    when a write fails (a shard that cannot be opened, disk full,
    permissions yanked).  Write failures leave the store consistent: a
    failed append truncates back to the entry start so the sidecar index
    never points at torn bytes.  Defined here (the lowest store layer)
    and re-exported by :mod:`repro.runtime.store`, its public home.
    """

#: On-disk format version, recorded in every entry's JSON record.  Bump
#: on any change to the entry layout or descriptor schema (see
#: CONTRIBUTING: "Shard format versioning").
SHARD_FORMAT_VERSION = 1

#: Subdirectory of the store root holding shard + index files.
SHARD_DIR = "shards"

_MAGIC = b"RPS1"
_HEADER = struct.Struct("<4sIIQ")  # magic, crc32(json), json_len, arr_len
_ALIGN = 8


def _pad(n: int) -> int:
    """Bytes of padding that align ``n`` to the array alignment."""
    return (-n) % _ALIGN


@dataclass(frozen=True)
class ShardEntry:
    """Index entry: where one record lives and what listing it needs."""

    key: str
    shard: str
    offset: int
    json_len: int
    arr_len: int
    n_arrays: int = 0
    fn: "str | None" = None
    seed: "int | None" = None

    @property
    def end(self) -> int:
        """First byte past this entry (header + JSON + array segment)."""
        return self.offset + _HEADER.size + self.json_len + self.arr_len

    def to_line(self) -> str:
        return json.dumps(
            {"key": self.key, "offset": self.offset,
             "json_len": self.json_len, "arr_len": self.arr_len,
             "n_arrays": self.n_arrays, "fn": self.fn, "seed": self.seed},
            sort_keys=True,
        ) + "\n"


def _describe_array(arr: np.ndarray, offset: int) -> "tuple[dict, np.ndarray]":
    """Array descriptor for the JSON record + the contiguous bytes source."""
    if arr.dtype.hasobject:
        raise TypeError(
            "object-dtype arrays cannot be stored (no stable byte "
            "representation); convert to a numeric/str dtype first"
        )
    order = "F" if (arr.flags.f_contiguous and not arr.flags.c_contiguous) \
        else "C"
    contig = arr if (arr.flags.c_contiguous or arr.flags.f_contiguous) \
        else np.ascontiguousarray(arr)
    descr = {
        "dtype": np.lib.format.dtype_to_descr(contig.dtype),
        "shape": list(contig.shape),
        "order": order,
        "offset": offset,
        "nbytes": int(contig.nbytes),
    }
    return descr, contig


def _reconstruct(buf, descr: Mapping, base_offset: int,
                 copy: bool) -> np.ndarray:
    """Rebuild one array from its descriptor over a buffer (mmap or bytes).

    With ``copy=False`` the result is a read-only view into ``buf``;
    with ``copy=True`` it is a fresh writable array.
    """
    dtype = np.lib.format.descr_to_dtype(descr["dtype"])
    shape = tuple(descr["shape"])
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if descr["nbytes"] == 0 and count != 0:  # pragma: no cover - defensive
        raise ValueError("array descriptor with zero bytes but nonzero size")
    flat = np.frombuffer(buf, dtype=dtype, count=count,
                         offset=base_offset + int(descr["offset"]))
    arr = flat.reshape(shape, order=descr.get("order", "C"))
    if copy:
        arr = arr.copy(order=descr.get("order", "C"))
    return arr


class PackedShards:
    """Reader/writer over a store's ``shards/`` directory.

    One instance serves one process: it owns at most one shard file for
    writing (per pid — a forked child opens its own) and caches an
    in-memory key index plus per-shard memory maps for reading.  The
    on-disk state it manages is multi-process safe (see module docs).
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        # key -> ShardEntry; covered -> bytes of each shard already indexed
        self._index: "dict[str, ShardEntry]" = {}
        self._covered: "dict[str, int]" = {}
        self._mmaps: "dict[str, tuple]" = {}  # shard -> (np.memmap, size)
        self._writer = None  # (pid, shard_name, shard_fh, idx_fh)

    # -- pickling: handles and caches are process-local -----------------

    def __getstate__(self) -> dict:
        return {"root": self.root}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["root"])

    # -- basic state ----------------------------------------------------

    @property
    def exists(self) -> bool:
        return self.root.is_dir()

    def shard_paths(self) -> "list[Path]":
        if not self.exists:
            return []
        return sorted(self.root.glob("*.shard"))

    def __contains__(self, key: str) -> bool:
        return self.lookup(key) is not None

    def keys(self) -> "Iterator[str]":
        self.refresh()
        yield from sorted(self._index)

    def entries(self) -> "Iterator[ShardEntry]":
        self.refresh()
        for key in sorted(self._index):
            yield self._index[key]

    def shard_mtime(self, shard: str) -> float:
        try:
            return (self.root / shard).stat().st_mtime
        except OSError:
            return 0.0

    # -- write ----------------------------------------------------------

    def _writer_handles(self):
        """The calling process's append handles (opened on first write)."""
        pid = os.getpid()
        if self._writer is not None and self._writer[0] == pid:
            return self._writer
        if self._writer is not None:  # forked child: never reuse the
            self._close_writer()      # parent's handles
        self.root.mkdir(parents=True, exist_ok=True)
        name = f"w{pid:x}-{uuid.uuid4().hex[:8]}.shard"
        shard_fh = open(self.root / name, "ab")
        idx_fh = open(self.root / f"{name}.idx", "a")
        self._writer = (pid, name, shard_fh, idx_fh)
        return self._writer

    def _close_writer(self) -> None:
        if self._writer is None:
            return
        _, _, shard_fh, idx_fh = self._writer
        for fh in (shard_fh, idx_fh):
            try:
                fh.close()
            except OSError:  # pragma: no cover - close failures are moot
                pass
        self._writer = None

    def append(self, key: str, plain: Mapping, arrays: "Mapping[str, np.ndarray]",
               spec: "Mapping | None" = None) -> Path:
        """Pack one record into this process's shard; returns the shard path.

        The shard entry lands (flushed) before its index line, so a crash
        between the two leaves a recoverable shard tail, never an index
        line pointing at missing bytes.  A write that fails midway
        (ENOSPC, yanked permissions) is truncated back to the entry
        start and re-raised as :class:`StoreError`: the shard keeps no
        torn tail and the sidecar index — which never saw the entry —
        stays consistent.
        """
        descrs, sources, pos = {}, [], 0
        for name in sorted(arrays):
            descr, contig = _describe_array(arrays[name], pos)
            descrs[name] = descr
            sources.append(contig)
            pos += descr["nbytes"] + _pad(descr["nbytes"])
        record = {
            "version": SHARD_FORMAT_VERSION,
            "key": key,
            "value": dict(plain),
            "arrays": descrs,
        }
        if spec is not None:
            record["spec"] = dict(spec)
        payload = json.dumps(record, sort_keys=True).encode("utf-8")

        try:
            _, name, shard_fh, idx_fh = self._writer_handles()
        except OSError as exc:
            raise StoreError(
                f"packed-shard append of {key!r} failed: cannot open a shard "
                f"under {self.root}: {exc}") from exc
        offset = shard_fh.tell()
        try:
            shard_fh.write(_HEADER.pack(_MAGIC, zlib.crc32(payload),
                                        len(payload), pos))
            shard_fh.write(payload)
            for descr, contig in zip(descrs.values(), sources):
                data = contig.tobytes(order=descr["order"])
                shard_fh.write(data)
                shard_fh.write(b"\0" * _pad(len(data)))
            shard_fh.flush()
        except OSError as exc:
            # Disk full (or permissions yanked) mid-entry: cut the
            # partial entry away so the shard carries no torn tail.  If
            # even the truncate fails, the recovery scan stops at the
            # torn entry anyway — either way the index stays consistent,
            # because the sidecar line below was never written.
            try:
                shard_fh.truncate(offset)
                shard_fh.seek(offset)
            except OSError:
                pass
            raise StoreError(
                f"packed-shard append of {key!r} failed mid-write: {exc} "
                f"(shard truncated back to the previous entry; the index "
                f"is consistent)") from exc

        entry = ShardEntry(
            key=key, shard=name, offset=offset, json_len=len(payload),
            arr_len=pos, n_arrays=len(descrs),
            fn=(spec or {}).get("fn"), seed=(spec or {}).get("seed"),
        )
        try:
            idx_fh.write(entry.to_line())
            idx_fh.flush()
        except OSError:
            # The entry itself is durably committed and the sidecar is
            # only a cache: a reader recovers the uncovered tail by
            # scanning the shard.  Don't fail a stored result over it.
            telemetry.count("store.shard.idx_write_failures")
        self._index[key] = entry
        self._covered[name] = entry.end
        telemetry.count("store.shard.appends")
        if chaos.active() is not None and chaos.torn_shard_write(name):
            self._tear_tail(shard_fh, name)
        return self.root / name

    def _tear_tail(self, shard_fh, name: str) -> None:
        """Chaos hook: simulate this writer crashing mid-append.

        Writes a garbage partial header at the shard tail — after the
        committed entry, whose index line is already durable — then
        retires the writer handles so the next append opens a fresh
        shard, exactly like a replacement process would.  Readers must
        scan around the torn tail (:meth:`scan_shard` stops at it).
        """
        try:
            shard_fh.write(_MAGIC + b"\x7f\x7f\x7f")
            shard_fh.flush()
        except OSError:  # pragma: no cover - chaos on a full disk
            pass
        self._close_writer()
        telemetry.count("store.shard.chaos_tears")

    # -- index maintenance ----------------------------------------------

    def refresh(self) -> None:
        """Bring the in-memory index up to date with the directory.

        Costs one directory listing plus a ``stat`` per shard when
        nothing changed; a grown shard is caught up from its sidecar
        index, and any bytes the sidecar does not faithfully cover
        (torn/missing/corrupt index) are recovered by scanning the
        shard itself.
        """
        for path in self.shard_paths():
            name = path.name
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if self._covered.get(name, -1) >= size:
                continue
            self._load_shard(path, size)

    def _load_shard(self, path: Path, size: int) -> None:
        """Index one shard: trust the sidecar as far as it matches."""
        name = path.name
        pos = 0
        for entry in self._read_sidecar(path):
            if entry.offset != pos or entry.end > size:
                break  # sidecar diverges from the shard: scan from here
            self._index[entry.key] = entry
            pos = entry.end
        if pos < size:
            n = 0
            for entry in self.scan_shard(path, start=pos):
                self._index[entry.key] = entry
                n += 1
            if n:
                telemetry.count("store.shard.recovered", n)
        self._covered[name] = size

    def _read_sidecar(self, shard_path: Path) -> "Iterator[ShardEntry]":
        """Parse the sidecar index, skipping torn/garbage lines."""
        idx_path = shard_path.with_name(shard_path.name + ".idx")
        try:
            text = idx_path.read_text()
        except OSError:
            return
        for line in text.splitlines():
            try:
                doc = json.loads(line)
                yield ShardEntry(
                    key=doc["key"], shard=shard_path.name,
                    offset=int(doc["offset"]), json_len=int(doc["json_len"]),
                    arr_len=int(doc["arr_len"]),
                    n_arrays=int(doc.get("n_arrays", 0)),
                    fn=doc.get("fn"), seed=doc.get("seed"),
                )
            except (ValueError, KeyError, TypeError):
                return  # torn tail (or corrupt line): shard scan takes over

    def scan_shard(self, path: Path, start: int = 0) -> "Iterator[ShardEntry]":
        """Walk a shard's self-describing entries from ``start``.

        Stops at the first torn/corrupt entry (truncated header or
        payload, bad magic, CRC mismatch): an append-only file can only
        be damaged at its tail, and everything before it stays valid.
        """
        size = path.stat().st_size
        with open(path, "rb") as fh:
            fh.seek(start)
            pos = start
            while True:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return
                magic, crc, json_len, arr_len = _HEADER.unpack(header)
                if magic != _MAGIC:
                    return
                payload = fh.read(json_len)
                if len(payload) < json_len or zlib.crc32(payload) != crc:
                    return
                try:
                    record = json.loads(payload)
                    key = record["key"]
                except (ValueError, KeyError):
                    return
                entry = ShardEntry(
                    key=key, shard=path.name, offset=pos,
                    json_len=json_len, arr_len=arr_len,
                    n_arrays=len(record.get("arrays", {})),
                    fn=(record.get("spec") or {}).get("fn"),
                    seed=(record.get("spec") or {}).get("seed"),
                )
                if entry.end > size:
                    return  # array segment torn off
                pos = entry.end
                fh.seek(pos)
                yield entry

    def rebuild_index(self) -> int:
        """Rewrite every sidecar index from its shard; returns entry count.

        Each sidecar is written to a temp file and atomically swapped in
        (``os.replace``), so concurrent readers always see either the
        old or the new index — and either one is only a cache over the
        self-describing shard bytes.
        """
        n = 0
        with telemetry.span("store.shard.rebuild"):
            for path in self.shard_paths():
                entries = list(self.scan_shard(path))
                idx_path = path.with_name(path.name + ".idx")
                fd, tmp = tempfile.mkstemp(dir=self.root,
                                           prefix=f".{idx_path.name}.")
                try:
                    with os.fdopen(fd, "w") as fh:
                        for entry in entries:
                            fh.write(entry.to_line())
                    os.replace(tmp, idx_path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
                for entry in entries:
                    self._index[entry.key] = entry
                self._covered[path.name] = \
                    entries[-1].end if entries else 0
                n += len(entries)
        return n

    # -- read -----------------------------------------------------------

    def lookup(self, key: str) -> "ShardEntry | None":
        """Find a key, re-scanning the directory once on a miss (another
        process may have appended since our last refresh)."""
        entry = self._index.get(key)
        if entry is None:
            if not self.exists:
                return None
            self.refresh()
            entry = self._index.get(key)
        return entry

    def entry_bytes(self, key: str) -> "bytes | None":
        """A key's exact on-disk entry — header, JSON and array segment —
        or ``None`` if the key is absent.  Byte-parity checks between two
        stores compare these."""
        entry = self.lookup(key)
        if entry is None:
            return None
        with open(self.root / entry.shard, "rb") as fh:
            fh.seek(entry.offset)
            return fh.read(entry.end - entry.offset)

    def _mmap_for(self, shard: str, needed: int):
        """A (cached) read-only memory map covering at least ``needed``."""
        cached = self._mmaps.get(shard)
        if cached is not None and cached[1] >= needed:
            return cached[0]
        path = self.root / shard
        size = path.stat().st_size
        mm = np.memmap(path, dtype=np.uint8, mode="r", shape=(size,))
        self._mmaps[shard] = (mm, size)
        return mm

    def read(self, key: str, mmap: bool = False) -> "tuple[dict, dict] | None":
        """Load ``(record, value)`` for a key, or ``None`` on a miss.

        ``value`` is the caller-facing result dict (plain fields plus
        reconstructed arrays).  With ``mmap=True`` the arrays are
        read-only zero-copy views into the shard's memory map; the
        default returns fresh writable copies.
        """
        entry = self.lookup(key)
        if entry is None:
            return None
        try:
            if mmap:
                buf = self._mmap_for(entry.shard, entry.end)
            else:
                with open(self.root / entry.shard, "rb") as fh:
                    fh.seek(entry.offset)
                    buf = fh.read(entry.end - entry.offset)
                if len(buf) < entry.end - entry.offset:
                    raise OSError("shard truncated under a live index")
            base = entry.offset if mmap else 0
            payload = bytes(buf[base + _HEADER.size:
                                base + _HEADER.size + entry.json_len])
            record = json.loads(payload)
            value = dict(record.get("value", {}))
            arr_base = base + _HEADER.size + entry.json_len
            for name, descr in record.get("arrays", {}).items():
                value[name] = _reconstruct(buf, descr, arr_base,
                                           copy=not mmap)
        except (OSError, ValueError, KeyError):
            # Torn shard tail, raced compaction, or corrupt descriptor:
            # the store contract is "unreadable counts as a miss".
            self._index.pop(key, None)
            return None
        return record, value
