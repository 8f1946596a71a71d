"""Unit tests for the content-addressed on-disk result store."""

import numpy as np
import pytest
from store_helpers import write_legacy_record

from repro.runtime import ResultStore

KEY = "ab" * 16


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestRoundTrip:
    def test_plain_json_fields(self, store):
        value = {"runtime": 0.125, "n": 3, "tags": ["a", "b"], "ok": True}
        store.put(KEY, value)
        assert store.get(KEY) == value

    def test_float_bits_survive(self, store):
        value = {"x": 0.1 + 0.2, "y": 1e-300}
        store.put(KEY, value)
        loaded = store.get(KEY)
        assert loaded["x"].hex() == value["x"].hex()
        assert loaded["y"].hex() == value["y"].hex()

    def test_ndarray_fields_via_npz(self, store):
        """A legacy record's NPZ side-car arrays survive ``migrate``."""
        arr = np.linspace(0.0, 1.0, 7)
        write_legacy_record(store.root, KEY, {"curve": arr, "n": 7})
        assert store.get(KEY) is None  # unmigrated: a miss
        assert store.migrate().n_packed == 1
        loaded = store.get(KEY)
        np.testing.assert_array_equal(loaded["curve"], arr)
        assert loaded["n"] == 7

    def test_numpy_scalars_stored_as_python(self, store):
        store.put(KEY, {"a": np.float64(0.5), "b": np.int64(4)})
        assert store.get(KEY) == {"a": 0.5, "b": 4}

    def test_spec_recorded_for_provenance(self, store):
        store.put(KEY, {"x": 1}, spec={"fn": "m:f", "seed": 9})
        record, _ = store._shards.read(KEY)
        assert record["spec"] == {"fn": "m:f", "seed": 9}
        assert record["key"] == KEY


class TestMissesAndErrors:
    def test_missing_key_is_none(self, store):
        assert store.get(KEY) is None
        assert KEY not in store

    def test_torn_record_counts_as_miss(self, store):
        write_legacy_record(store.root, KEY, {"x": 1}).write_text("{ not json")
        assert store.migrate().n_skipped == 1
        assert store.get(KEY) is None

    def test_missing_npz_sidecar_counts_as_miss(self, store):
        path = write_legacy_record(store.root, KEY, {"curve": np.ones(3)})
        path.with_suffix(".npz").unlink()
        assert store.migrate().n_skipped == 1
        assert store.get(KEY) is None

    def test_non_mapping_value_rejected(self, store):
        with pytest.raises(TypeError, match="mappings"):
            store.put(KEY, [1, 2, 3])

    def test_malformed_key_rejected(self, store):
        with pytest.raises(ValueError, match="malformed"):
            store.put("../escape", {"x": 1})
        with pytest.raises(ValueError, match="malformed"):
            store.get("../escape")


class TestMaintenance:
    def test_keys_len_clear(self, store):
        keys = [f"{i:032x}" for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i, "arr": np.arange(i + 1)})
        assert sorted(store.keys()) == sorted(keys)
        assert len(store) == 3
        assert store.clear() == 3
        assert len(store) == 0
        assert store.get(keys[0]) is None

    def test_empty_store_iterates_nothing(self, store):
        assert list(store.keys()) == []
        assert len(store) == 0
