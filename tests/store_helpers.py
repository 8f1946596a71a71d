"""Result-store test helpers: the legacy per-file format and byte parity.

Importable from any test module (pytest puts ``tests/`` on ``sys.path``
for the root ``conftest.py``); benchmarks load it by file path.
"""

import json
import shutil
from pathlib import Path

import numpy as np

from repro.runtime import ResultStore
from repro.runtime.shards import SHARD_DIR, PackedShards


def write_legacy_record(root, key, value, spec=None) -> Path:
    """Write one record in the per-file format older store versions wrote.

    ``<key[:2]>/<key>.json`` holds ``{"version", "key", "value",
    "__arrays__", "spec"}`` with ``indent=1``; ndarray fields go to a
    ``savez_compressed`` side-car ``<key>.npz``.  Returns the JSON path.
    """
    path = Path(root) / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    plain, arrays = {}, {}
    for name, item in value.items():
        if isinstance(item, np.ndarray):
            arrays[name] = item
        elif isinstance(item, np.generic):
            plain[name] = item.item()
        else:
            plain[name] = item
    if arrays:
        np.savez_compressed(path.with_suffix(".npz"), **arrays)
    record = {"version": 1, "key": key, "value": plain,
              "__arrays__": sorted(arrays)}
    if spec is not None:
        record["spec"] = dict(spec)
    path.write_text(json.dumps(record, indent=1))
    return path


def entry_bytes(root) -> "dict[str, bytes]":
    """Every key stored under ``root`` mapped to its exact packed entry
    bytes (header, JSON and array segment)."""
    shards = PackedShards(Path(root) / SHARD_DIR)
    return {key: shards.entry_bytes(key) for key in shards.keys()}


def keep_only(root, keys) -> ResultStore:
    """Rebuild the store at ``root`` holding only ``keys`` — a partially
    finished campaign — by re-putting them into fresh shards.  Everything
    else under ``root`` (run ledger, telemetry) stays.  Returns a fresh
    store instance; earlier instances point at the deleted shards."""
    shards = PackedShards(Path(root) / SHARD_DIR)
    kept = [(key, *shards.read(key)) for key in keys]
    shutil.rmtree(shards.root)
    store = ResultStore(root)
    for key, record, value in kept:
        store.put(key, value, spec=record.get("spec"))
    return store
