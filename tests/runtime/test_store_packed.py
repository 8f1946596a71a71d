"""Packed shards: round-trips, crash consistency, migration.

Torn shard tails, truncated/corrupt sidecar indexes, concurrent
multi-writer appends, and ``store migrate`` of legacy per-file records
(corrupt NPZ side-cars, and the byte-identity property).
"""

import json
import multiprocessing
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst
from store_helpers import write_legacy_record

from repro.runtime.shards import _HEADER, _MAGIC, PackedShards
from repro.runtime.store import ResultStore, _read_legacy

KEY = "ab" * 16


def keyn(i: int) -> str:
    return f"{i:032x}"


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestPackedRoundTrip:
    def test_plain_json_fields(self, store):
        value = {"runtime": 0.125, "n": 3, "tags": ["a", "b"], "ok": True}
        store.put(KEY, value)
        assert store.get(KEY) == value
        assert not any(store.root.glob("??"))  # nothing in a fan-out

    def test_float_bits_survive(self, store):
        value = {"x": 0.1 + 0.2, "y": 1e-300}
        store.put(KEY, value)
        loaded = store.get(KEY)
        assert loaded["x"].hex() == value["x"].hex()
        assert loaded["y"].hex() == value["y"].hex()

    def test_ndarray_fields(self, store):
        arr = np.linspace(0.0, 1.0, 7)
        store.put(KEY, {"curve": arr, "n": 7})
        loaded = store.get(KEY)
        np.testing.assert_array_equal(loaded["curve"], arr)
        assert loaded["curve"].dtype == arr.dtype
        assert loaded["curve"].flags.writeable  # default read copies
        assert loaded["n"] == 7

    def test_fortran_and_empty_and_0d_arrays(self, store):
        f = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        store.put(KEY, {"f": f, "empty": np.zeros((0, 3)), "s": np.float32(2.5)})
        loaded = store.get(KEY)
        np.testing.assert_array_equal(loaded["f"], f)
        assert loaded["f"].flags.f_contiguous
        assert loaded["empty"].shape == (0, 3)
        assert loaded["s"] == 2.5  # numpy scalar stored as plain field

    def test_object_dtype_rejected(self, store):
        with pytest.raises(TypeError, match="object-dtype"):
            store.put(KEY, {"bad": np.array([object()])})

    def test_mmap_read_is_zero_copy_view(self, store):
        arr = np.arange(24.0).reshape(2, 3, 4)
        store.put(KEY, {"stack": arr})
        view = store.get(KEY, mmap=True)["stack"]
        np.testing.assert_array_equal(view, arr)
        assert not view.flags.writeable  # read-only view into the shard
        assert view.base is not None  # not a fresh allocation

    def test_spec_recorded_for_provenance(self, store):
        store.put(KEY, {"x": 1}, spec={"fn": "m:f", "seed": 9})
        entry = next(iter(store.entries()))
        assert entry.fn == "m:f" and entry.seed == 9

    def test_cross_instance_read(self, store):
        store.put(KEY, {"x": 1})
        fresh = ResultStore(store.root)
        assert fresh.get(KEY) == {"x": 1}

    def test_last_write_wins_for_duplicate_keys(self, store):
        store.put(KEY, {"x": 1})
        store.put(KEY, {"x": 2})
        assert store.get(KEY) == {"x": 2}
        assert len(store) == 1

    def test_keys_and_contains(self, store):
        keys = [keyn(i) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        assert sorted(store.keys()) == sorted(keys)
        assert keys[0] in store and "ff" * 16 not in store

    def test_clear_removes_shards(self, store):
        store.put(KEY, {"x": 1, "a": np.ones(3)})
        assert store.clear() == 1
        assert len(store) == 0
        assert not (store.root / "shards").exists()
        assert store.get(KEY) is None


class TestShortKeys:
    def test_put_rejects_sub_fanout_keys(self, store):
        # Keys shorter than the legacy two-character fan-out prefix are
        # no content hash: rejected on write and on read.
        with pytest.raises(ValueError, match="malformed"):
            store.put("a", {"x": 1})
        with pytest.raises(ValueError, match="malformed"):
            store.get("a")
        with pytest.raises(ValueError, match="malformed"):
            store.get("")


class TestCorruptNpzSidecar:
    """Regression: np.load raises zipfile.BadZipFile/ValueError for a
    corrupt side-car — neither is an OSError, so they used to escape the
    miss handler and crash the whole campaign.  A legacy record with a
    damaged side-car is skipped by ``migrate`` and collected by ``gc``."""

    @pytest.fixture
    def legacy(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        path = write_legacy_record(store.root, KEY,
                                   {"curve": np.arange(4.0), "n": 4})
        return store, path, path.with_suffix(".npz")

    def test_garbage_npz_is_a_miss(self, legacy):
        store, _, npz = legacy
        npz.write_bytes(b"not a zip at all")
        assert store.migrate().n_skipped == 1  # used to raise BadZipFile
        assert store.get(KEY) is None

    def test_truncated_npz_is_a_miss(self, legacy):
        store, _, npz = legacy
        npz.write_bytes(npz.read_bytes()[:20])
        assert store.migrate().n_skipped == 1
        assert store.get(KEY) is None

    def test_gc_collects_corrupt_npz_pair(self, legacy):
        store, path, npz = legacy
        npz.write_bytes(b"not a zip at all")
        stats = store.gc(min_age_s=0)
        assert stats.n_legacy == 2 and stats.bytes_freed > 0
        assert not path.exists()
        assert not npz.exists()

    def test_gc_collects_missing_npz_pair(self, legacy):
        store, path, npz = legacy
        npz.unlink()
        stats = store.gc(min_age_s=0)
        assert stats.n_legacy == 1
        assert not path.exists()

    def test_gc_dry_run_keeps_the_pair(self, legacy):
        store, path, npz = legacy
        npz.write_bytes(b"junk")
        stats = store.gc(dry_run=True, min_age_s=0)
        assert stats.n_legacy == 2
        assert path.exists() and npz.exists()

    def test_gc_keeps_a_valid_unmigrated_record(self, legacy):
        store, path, npz = legacy
        assert store.gc(min_age_s=0).n_removed == 0
        assert path.exists() and npz.exists()


class TestLegacyClear:
    def test_clear_leaves_unmigrated_records_for_migrate(self, tmp_path):
        # Unmigrated per-file records are import input, not stored
        # records: clear() drops the shards and leaves them alone.
        store = ResultStore(tmp_path / "cache")
        store.put("cd" * 16, {"x": 1})
        path = write_legacy_record(store.root, KEY, {"a": np.ones(2)})
        assert store.clear() == 1
        assert not (store.root / "shards").exists()
        assert path.exists() and path.with_suffix(".npz").exists()
        assert store.migrate().n_packed == 1
        np.testing.assert_array_equal(store.get(KEY)["a"], np.ones(2))


class TestTornShard:
    def test_torn_tail_loses_only_the_last_entry(self, store):
        for i in range(3):
            store.put(keyn(i), {"i": i, "arr": np.arange(10.0) + i})
        shard = next(iter((store.root / "shards").glob("*.shard")))
        shard.write_bytes(shard.read_bytes()[:-7])  # tear mid-array
        (store.root / "shards" / f"{shard.name}.idx").unlink()
        fresh = ResultStore(store.root)
        assert fresh.get(keyn(2)) is None  # torn entry: a miss
        for i in range(2):  # earlier entries intact
            assert fresh.get(keyn(i))["i"] == i

    def test_torn_json_payload_stops_the_scan(self, store):
        store.put(keyn(0), {"x": 1})
        shard = next(iter((store.root / "shards").glob("*.shard")))
        data = bytearray(shard.read_bytes())
        data[_HEADER.size + 2] ^= 0xFF  # corrupt the record JSON
        shard.write_bytes(bytes(data))
        (store.root / "shards" / f"{shard.name}.idx").unlink()
        fresh = ResultStore(store.root)
        assert fresh.get(keyn(0)) is None  # CRC catches the damage

    def test_recovered_after_recompute(self, store):
        store.put(keyn(0), {"x": 1})
        shard = next(iter((store.root / "shards").glob("*.shard")))
        shard.write_bytes(shard.read_bytes()[:-3])
        fresh = ResultStore(store.root)
        assert fresh.get(keyn(0)) is None
        fresh.put(keyn(0), {"x": 1})  # the recompute path
        assert fresh.get(keyn(0)) == {"x": 1}


class TestTruncatedIndex:
    def test_missing_index_recovered_by_scan(self, store):
        for i in range(4):
            store.put(keyn(i), {"i": i})
        for idx in (store.root / "shards").glob("*.idx"):
            idx.unlink()
        fresh = ResultStore(store.root)
        assert {fresh.get(keyn(i))["i"] for i in range(4)} == set(range(4))

    def test_torn_index_tail_recovered_by_scan(self, store):
        for i in range(4):
            store.put(keyn(i), {"i": i})
        idx = next(iter((store.root / "shards").glob("*.idx")))
        text = idx.read_text().splitlines(keepends=True)
        idx.write_text("".join(text[:2]) + text[2][:10])  # torn line 3
        fresh = ResultStore(store.root)
        assert {fresh.get(keyn(i))["i"] for i in range(4)} == set(range(4))

    def test_garbage_index_recovered_by_scan(self, store):
        store.put(keyn(0), {"i": 0})
        idx = next(iter((store.root / "shards").glob("*.idx")))
        idx.write_text('{"key": "wrong", "offset": 999999}\nGARBAGE\n')
        fresh = ResultStore(store.root)
        assert fresh.get(keyn(0)) == {"i": 0}

    def test_rebuild_index_rewrites_sidecars(self, store):
        for i in range(3):
            store.put(keyn(i), {"i": i, "a": np.ones(2)})
        shards = store.root / "shards"
        for idx in shards.glob("*.idx"):
            idx.write_text("GARBAGE\n")
        fresh = ResultStore(store.root)
        assert fresh._shards.rebuild_index() == 3
        # The rewritten sidecar alone now lists everything: a third
        # instance reads entries() without touching record payloads.
        third = ResultStore(store.root)
        assert {e.key for e in third.entries()} == {keyn(i) for i in range(3)}
        for line in (next(iter(shards.glob("*.idx")))).read_text().splitlines():
            assert set(json.loads(line)) >= {"key", "offset", "json_len"}


def _writer_proc(root, start, n):
    store = ResultStore(root)
    for i in range(start, start + n):
        store.put(keyn(i), {"i": i, "arr": np.full(5, float(i))})


class TestConcurrentWriters:
    def test_two_writers_never_collide(self, tmp_path):
        root = tmp_path / "cache"
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_writer_proc, args=(root, s, 25))
                 for s in (0, 25)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        store = ResultStore(root)
        assert len(store) == 50
        for i in range(50):
            value = store.get(keyn(i))
            assert value["i"] == i
            np.testing.assert_array_equal(value["arr"], np.full(5, float(i)))
        # each process appended to its own shard file
        assert len(list((root / "shards").glob("*.shard"))) == 2

    def test_forked_child_opens_its_own_shard(self, tmp_path):
        root = tmp_path / "cache"
        store = ResultStore(root)
        store.put(keyn(0), {"i": 0})  # parent owns a writer handle now
        ctx = multiprocessing.get_context("fork")

        def child():
            store.put(keyn(1), {"i": 1})  # inherited instance, new pid

        p = ctx.Process(target=child)
        p.start()
        p.join()
        assert p.exitcode == 0
        fresh = ResultStore(root)
        assert fresh.get(keyn(1)) == {"i": 1}
        assert len(list((root / "shards").glob("*.shard"))) == 2


class TestMigration:
    def _legacy_store(self, tmp_path):
        root = tmp_path / "cache"
        write_legacy_record(root, keyn(0), {"x": 0.1 + 0.2,
                                            "curve": np.linspace(0, 1, 9)},
                            spec={"fn": "m:f", "seed": 3})
        write_legacy_record(root, keyn(1), {"plain": [1, 2, 3]})
        write_legacy_record(root, keyn(2), {"f": np.asfortranarray(np.eye(3))})
        return ResultStore(root)

    def test_migrate_then_get_byte_identical(self, tmp_path):
        store = self._legacy_store(tmp_path)
        before = {path.stem: _read_legacy(path)[1]
                  for path in sorted(store.root.glob("??/*.json"))}
        assert len(before) == 3
        assert all(store.get(k) is None for k in before)  # unmigrated
        stats = store.migrate()
        assert stats.n_packed == 3 and stats.n_skipped == 0
        after = ResultStore(store.root)  # fresh instance
        for key, old in before.items():
            new = after.get(key)
            assert set(new) == set(old)
            for name, item in old.items():
                if isinstance(item, np.ndarray):
                    assert new[name].dtype == item.dtype
                    assert new[name].shape == item.shape
                    assert new[name].tobytes() == item.tobytes()
                else:
                    assert new[name] == item

    def test_migrate_is_idempotent(self, tmp_path):
        store = self._legacy_store(tmp_path)
        store.migrate()
        again = store.migrate()
        assert again.n_packed == 0 and again.n_already == 3

    def test_migrate_skips_unreadable_records(self, tmp_path):
        store = self._legacy_store(tmp_path)
        (store.root / "00" / f"{keyn(1)}.json").write_text("{torn")
        (store.root / "00" / f"{keyn(2)}.npz").write_bytes(b"bad zip")
        stats = store.migrate()
        assert stats.n_packed == 1 and stats.n_skipped == 2

    def test_dry_run_packs_nothing(self, tmp_path):
        store = self._legacy_store(tmp_path)
        stats = store.migrate(dry_run=True)
        assert stats.n_packed == 3
        assert not (store.root / "shards").exists()

    def test_gc_prunes_packed_originals(self, tmp_path):
        store = self._legacy_store(tmp_path)
        store.migrate()
        stats = store.gc(min_age_s=0)
        assert stats.n_legacy == 5 and stats.bytes_freed > 0  # 3 JSON, 2 NPZ
        assert not any(store.root.glob("??/*.json"))
        assert not any(store.root.glob("??"))  # emptied fan-out removed
        fresh = ResultStore(store.root)
        assert fresh.get(keyn(0))["x"] == 0.1 + 0.2

    def test_entries_list_migrated_keys_once(self, tmp_path):
        store = self._legacy_store(tmp_path)
        store.migrate()
        store.migrate()  # a second pass appends no duplicates
        entries = list(ResultStore(store.root).entries())
        assert [e.key for e in entries] == [keyn(i) for i in range(3)]


_plain_values = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=8),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
)
_arrays = npst.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.uint8]),
    shape=npst.array_shapes(max_dims=3, max_side=4),
)
_records = st.dictionaries(
    keys=st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
    values=st.one_of(_plain_values, _arrays),
    max_size=5,
)


class TestMigrationProperty:
    @given(record=_records, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_any_record_survives_migration_byte_identically(
            self, tmp_path_factory, record, seed):
        root = tmp_path_factory.mktemp("prop") / "cache"
        path = write_legacy_record(root, KEY, record,
                                   spec={"fn": "m:prop", "seed": seed})
        before = _read_legacy(path)[1]
        assert ResultStore(root).migrate().n_packed == 1
        after = ResultStore(root).get(KEY)
        assert set(after) == set(before)
        for name, item in before.items():
            if isinstance(item, np.ndarray):
                assert after[name].dtype == item.dtype
                assert after[name].shape == item.shape
                assert after[name].tobytes() == item.tobytes()
            elif isinstance(item, float):
                assert after[name].hex() == item.hex()
            else:
                assert after[name] == item


class TestShardInternals:
    def test_entry_header_layout(self, store):
        store.put(KEY, {"x": 1})
        shard = next(iter((store.root / "shards").glob("*.shard")))
        raw = shard.read_bytes()
        magic, crc, json_len, arr_len = _HEADER.unpack(raw[:_HEADER.size])
        assert magic == _MAGIC and arr_len == 0
        payload = raw[_HEADER.size:_HEADER.size + json_len]
        assert zlib.crc32(payload) == crc
        assert json.loads(payload)["key"] == KEY

    def test_pickling_drops_process_local_state(self, store):
        import pickle

        store.put(KEY, {"x": 1})
        clone = pickle.loads(pickle.dumps(store._shards))
        assert isinstance(clone, PackedShards)
        assert clone._writer is None and not clone._mmaps
        assert clone.read(KEY)[1] == {"x": 1}
