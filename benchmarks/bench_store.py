"""Benchmark: the packed result store at 10k records.

Builds a 10k-record corpus in the legacy one-file-per-record format —
the import input caches of older versions hold — packs it into shards
(``store migrate`` + ``store gc``), then measures the two operations a
large sweep leans on, each on a fresh store instance:

- **entries()** — the full store listing the CLI and gc walk.  The gate
  is structural: listing must read only the shards' ``.idx`` sidecars —
  no shard scan, no record bytes — so it can never degenerate into a
  10k-record walk.
- **warm get()** — random-access lookup latency over a sample of keys:
  one index probe plus a slice of an already-mapped shard.

Migration itself is asserted lossless (same keys and values before and
after) so the benchmark doubles as a 10k-record migration test.
"""

import builtins
import importlib.util
import io
import random
import time
from pathlib import Path

import pytest

from repro.runtime import ResultStore
from repro.runtime.shards import PackedShards

N_RECORDS = 10_000
N_GETS = 2_000

_HELPERS = Path(__file__).parents[1] / "tests" / "store_helpers.py"


def _store_helpers():
    spec = importlib.util.spec_from_file_location("store_helpers", _HELPERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _value(i):
    return {"runtime": i * 1e-4, "replicate": i}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """``N_RECORDS`` tiny legacy records, migrated into packed shards."""
    root = tmp_path_factory.mktemp("bench-store") / "cache"
    write_legacy_record = _store_helpers().write_legacy_record
    keys = [f"{i:032x}" for i in range(N_RECORDS)]
    for i, key in enumerate(keys):
        write_legacy_record(root, key, _value(i),
                            spec={"fn": "bench:tiny", "seed": i})

    # Pack the corpus and drop the per-file originals, as a deployment
    # would: ``store migrate`` then ``store gc``.
    store = ResultStore(root)
    stats = store.migrate()
    assert stats.n_packed == N_RECORDS and stats.n_skipped == 0
    assert store.gc(min_age_s=0).n_legacy == N_RECORDS
    assert not any(root.glob("??"))
    return {"root": root, "keys": keys}


def test_bench_store_entries(corpus, once, bench_record, monkeypatch):
    root = corpus["root"]
    packed = ResultStore(root)  # fresh instance, cold index
    opened = []
    real_open = io.open

    def recording_open(file, *args, **kwargs):
        if str(file).startswith(str(root)):
            opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("entries() read shard bytes")

    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(PackedShards, "scan_shard", forbidden)
    monkeypatch.setattr(PackedShards, "read", forbidden)
    entries, t_entries = once(lambda: _timed(lambda: list(packed.entries())))
    monkeypatch.undo()

    assert len(entries) == N_RECORDS
    assert {e.key for e in entries} == set(corpus["keys"])
    assert {(e.fn, e.seed) for e in entries[:3]} \
        == {("bench:tiny", int(k, 16)) for k in corpus["keys"][:3]}
    # The gate: listing reads the sidecar indexes and nothing else.
    assert opened and all(name.endswith(".idx") for name in opened)
    print(f"\nentries() over {N_RECORDS} records: {t_entries * 1e3:.1f}ms "
          f"from {len(opened)} index file(s)")
    bench_record(n_records=N_RECORDS, t_packed_s=t_entries,
                 n_files_read=len(opened))


def test_bench_store_warm_get(corpus, once, bench_record):
    sample = random.Random(7).sample(corpus["keys"], N_GETS)
    store = ResultStore(corpus["root"])
    store.get(sample[0])  # prime the index + shard mappings

    def measure():
        return _timed(lambda: [store.get(k) for k in sample])

    values, t_gets = once(measure)
    # Lossless migration: every sampled value reads back unchanged.
    assert values == [_value(int(k, 16)) for k in sample]
    print(f"\nwarm get() x{N_GETS}: {t_gets:.3f}s")
    bench_record(n_gets=N_GETS, t_packed_s=t_gets)
