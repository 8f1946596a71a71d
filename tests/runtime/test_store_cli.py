"""Tests for store maintenance: ``ResultStore.entries``/``gc`` + the CLI."""

import json
import os

import numpy as np
import pytest
from store_helpers import write_legacy_record

from repro.cli import main as repro_main
from repro.runtime.cli import store_main
from repro.runtime.store import ResultStore


@pytest.fixture
def store(tmp_path):
    store = ResultStore(tmp_path / "cache")
    store.put("aa" * 16, {"x": 1.0}, spec={"fn": "m:f", "seed": 7})
    store.put("bb" * 16, {"arr": np.arange(4.0)})
    return store


class TestEntries:
    def test_metadata(self, store):
        entries = {e.key: e for e in store.entries()}
        assert set(entries) == {"aa" * 16, "bb" * 16}
        plain = entries["aa" * 16]
        assert plain.fn == "m:f" and plain.seed == 7
        assert plain.npz_bytes == 0 and plain.json_bytes > 0
        arrays = entries["bb" * 16]
        assert arrays.n_arrays == 1 and arrays.npz_bytes > 0
        assert arrays.total_bytes == arrays.json_bytes + arrays.npz_bytes

    def test_empty_store(self, tmp_path):
        assert list(ResultStore(tmp_path / "nope").entries()) == []

    def test_mtime_comes_from_stat(self, store):
        key = "aa" * 16
        (shard,) = (store.root / "shards").glob("*.shard")
        os.utime(shard, (1_000_000_000, 1_000_000_000))
        entry = {e.key: e for e in ResultStore(store.root).entries()}[key]
        assert entry.mtime == 1_000_000_000

    def test_torn_and_partial_records_are_skipped(self, store):
        """A shard with a torn tail lists only its committed records.

        Two flavors of damage, each followed by a fresh reader with no
        sidecar index to lean on: an entry cut off mid-array, and an
        entry whose JSON bytes no longer match their CRC.
        """
        store.put("cc" * 16, {"x": list(range(50)), "a": np.arange(8.0)},
                  spec={"fn": "m:f", "seed": 3})
        (shard,) = (store.root / "shards").glob("*.shard")
        (idx,) = (store.root / "shards").glob("*.idx")
        data = shard.read_bytes()
        idx.unlink()
        shard.write_bytes(data[:-5])  # mid-array
        assert {e.key for e in ResultStore(store.root).entries()} \
            == {"aa" * 16, "bb" * 16}
        torn = bytearray(data)
        torn[-100] ^= 0xFF  # inside the last entry's JSON
        shard.write_bytes(bytes(torn))
        assert {e.key for e in ResultStore(store.root).entries()} \
            == {"aa" * 16, "bb" * 16}

    def test_header_parse_skips_large_payloads(self, store, monkeypatch):
        """Listing parses the shard index only, never a record payload."""
        key = "cc" * 16
        store.put(
            key,
            {"blob": ["x" * 64] * 20_000, "arr": np.arange(3.0)},
            spec={"fn": "m:big", "seed": 9},
        )
        fresh = ResultStore(store.root)

        def no_payload_reads(*args, **kwargs):
            raise AssertionError("entries() read record bytes")

        monkeypatch.setattr(fresh._shards, "read", no_payload_reads)
        monkeypatch.setattr(fresh._shards, "scan_shard", no_payload_reads)
        entry = {e.key: e for e in fresh.entries()}[key]
        assert entry.fn == "m:big" and entry.seed == 9 and entry.n_arrays == 1
        assert entry.json_bytes > 20_000 * 64


class TestGc:
    def test_nothing_to_do(self, store):
        stats = store.gc()
        assert stats.n_removed == 0 and stats.bytes_freed == 0
        assert len(store) == 2

    @pytest.fixture
    def orphan_npz(self, store):
        """A legacy side-car whose JSON record is gone."""
        path = write_legacy_record(store.root, "cc" * 16,
                                   {"arr": np.arange(4.0)})
        path.unlink()
        return path.with_suffix(".npz")

    def test_orphan_npz_removed(self, store, orphan_npz):
        stats = store.gc(min_age_s=0)
        assert stats.n_legacy == 1 and stats.bytes_freed > 0
        assert not orphan_npz.exists()
        assert not orphan_npz.parent.exists()  # emptied fan-out removed
        assert store.get("aa" * 16) == {"x": 1.0}  # valid record untouched

    def test_torn_record_removed_with_sidecar(self, store):
        path = write_legacy_record(store.root, "cc" * 16,
                                   {"arr": np.arange(4.0)})
        path.write_text("{not json")
        stats = store.gc(min_age_s=0)
        assert stats.n_legacy == 2
        assert not path.exists()
        assert not path.with_suffix(".npz").exists()

    def test_stale_tmp_files_removed(self, store):
        tmp = store.root / "aa" / ".leftover.json.x1y2"
        tmp.parent.mkdir()
        tmp.write_text("partial")
        stats = store.gc(min_age_s=0)
        assert stats.n_legacy == 1
        assert not tmp.exists()

    def test_fresh_tmp_files_survive(self, store):
        # A concurrent writer's live temp file must not be unlinked.
        tmp = store.root / "shards" / ".inflight.idx.x1y2"
        tmp.write_text("partial")
        stats = store.gc()
        assert stats.n_tmp == 0
        assert tmp.exists()
        assert store.gc(min_age_s=0).n_tmp == 1
        assert not tmp.exists()

    def test_fresh_orphan_npz_survives(self, store, orphan_npz):
        # An older version sharing the cache writes the NPZ before its
        # JSON record; a gc racing that window must not unlink it.
        stats = store.gc()
        assert stats.n_legacy == 0
        assert orphan_npz.exists()

    def test_dry_run_deletes_nothing(self, store, orphan_npz):
        stats = store.gc(dry_run=True, min_age_s=0)
        assert stats.n_legacy == 1
        assert orphan_npz.exists()

    def test_missing_root(self, tmp_path):
        stats = ResultStore(tmp_path / "nope").gc()
        assert stats.n_removed == 0


class TestGcObservability:
    """gc also maintains the obs side-dirs: <cache>/telemetry/ JSONL no
    ledger record references, torn run records, and abandoned temps —
    never a valid ledger record (provenance is not cache)."""

    @pytest.fixture
    def obs_store(self, store):
        runs = store.root / "runs"
        tele = store.root / "telemetry"
        runs.mkdir()
        tele.mkdir()
        (tele / "kept.jsonl").write_text('{"type": "meta"}\n')
        (runs / "sweep-a.json").write_text(json.dumps(
            {"id": "sweep-a", "telemetry": str(tele / "kept.jsonl")}) + "\n")
        return store

    def test_referenced_telemetry_and_valid_records_survive(self, obs_store):
        stats = obs_store.gc(min_age_s=0)
        assert stats.n_removed == 0
        assert (obs_store.root / "runs" / "sweep-a.json").exists()
        assert (obs_store.root / "telemetry" / "kept.jsonl").exists()

    def test_orphan_telemetry_removed(self, obs_store):
        orphan = obs_store.root / "telemetry" / "orphan.jsonl"
        orphan.write_text('{"type": "meta"}\n')
        stats = obs_store.gc(min_age_s=0)
        assert stats.n_orphan_telemetry == 1 and stats.bytes_freed > 0
        assert not orphan.exists()
        assert (obs_store.root / "telemetry" / "kept.jsonl").exists()

    def test_fresh_orphan_telemetry_survives(self, obs_store):
        # A live --profile run writes telemetry before its ledger record.
        orphan = obs_store.root / "telemetry" / "inflight.jsonl"
        orphan.write_text('{"type": "meta"}\n')
        stats = obs_store.gc()  # default min-age spares young files
        assert stats.n_orphan_telemetry == 0
        assert orphan.exists()

    def test_torn_run_record_removed(self, obs_store):
        torn = obs_store.root / "runs" / "torn.json"
        torn.write_text('{"id": "tor')
        stats = obs_store.gc(min_age_s=0)
        assert stats.n_torn_runs == 1
        assert not torn.exists()

    def test_ledger_temp_files_counted_as_tmp(self, obs_store):
        (obs_store.root / "runs" / ".sweep-b.json.x1").write_text("p")
        (obs_store.root / "telemetry" / ".w.jsonl.x2").write_text("p")
        stats = obs_store.gc(min_age_s=0)
        assert stats.n_tmp == 2
        assert stats.n_orphan_telemetry == 0

    def test_dry_run_reports_without_deleting(self, obs_store):
        orphan = obs_store.root / "telemetry" / "orphan.jsonl"
        orphan.write_text('{"type": "meta"}\n')
        stats = obs_store.gc(dry_run=True, min_age_s=0)
        assert stats.n_orphan_telemetry == 1 and stats.bytes_freed > 0
        assert orphan.exists()

    def test_cli_reports_new_categories(self, obs_store, capsys):
        (obs_store.root / "telemetry" / "orphan.jsonl").write_text("{}\n")
        (obs_store.root / "runs" / "torn.json").write_text("{")
        assert store_main(["gc", "--cache-dir", str(obs_store.root),
                           "--min-age", "0"]) == 0
        out = capsys.readouterr().out
        assert "1 orphan telemetry" in out
        assert "1 torn run record(s)" in out
        assert "removed 2 file(s)" in out

    def test_end_to_end_profiled_sweep_then_gc(self, tmp_path, capsys):
        """A real profiled sweep's ledger + telemetry are never pruned."""
        from repro.scenarios.cli import scenario_main

        store_dir = tmp_path / "cache"
        assert scenario_main([
            "sweep", "campaign_rate_sweep", "--cache-dir", str(store_dir),
            "--profile", "--no-progress",
        ]) == 0
        capsys.readouterr()
        stats = ResultStore(store_dir).gc(min_age_s=0)
        assert stats.n_removed == 0
        assert list((store_dir / "runs").glob("*.json"))
        assert list((store_dir / "telemetry").glob("*.jsonl"))


class TestCli:
    def test_ls(self, store, capsys):
        # An unmigrated legacy record is import input, not a result.
        write_legacy_record(store.root, "cc" * 16, {"x": 2},
                            spec={"fn": "m:old", "seed": 1})
        assert store_main(["ls", "--cache-dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "m:f" in out and "2 result(s)" in out
        assert "m:old" not in out
        assert store_main(["migrate", "--cache-dir", str(store.root)]) == 0
        assert store_main(["ls", "--cache-dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "m:old" in out and "3 result(s)" in out

    def test_ls_json(self, store, capsys):
        assert store_main(["ls", "--cache-dir", str(store.root),
                           "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {e["key"] for e in doc} == {"aa" * 16, "bb" * 16}

    def test_ls_empty(self, tmp_path, capsys):
        assert store_main(["ls", "--cache-dir", str(tmp_path / "e")]) == 0
        assert "empty store" in capsys.readouterr().out

    @pytest.fixture
    def migrated(self, store):
        """A migrated legacy record: its per-file original is garbage."""
        path = write_legacy_record(store.root, "cc" * 16,
                                   {"arr": np.arange(4.0)},
                                   spec={"fn": "m:old", "seed": 1})
        assert store.migrate().n_packed == 1
        return path

    def test_gc_reports_counts(self, store, migrated, capsys):
        assert store_main(["gc", "--cache-dir", str(store.root),
                           "--min-age", "0"]) == 0
        assert "removed 2 file(s): 2 legacy per-file" \
            in capsys.readouterr().out
        assert not migrated.exists()
        assert ResultStore(store.root).get("cc" * 16) is not None

    def test_gc_dry_run(self, store, migrated, capsys):
        assert store_main(["gc", "--cache-dir", str(store.root),
                           "--dry-run", "--min-age", "0"]) == 0
        assert "would remove 2" in capsys.readouterr().out
        assert migrated.exists() and migrated.with_suffix(".npz").exists()

    def test_main_wiring(self, store, capsys):
        assert repro_main(["store", "ls", "--cache-dir",
                           str(store.root)]) == 0
        assert "2 result(s)" in capsys.readouterr().out
