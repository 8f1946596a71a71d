"""Store failure semantics: fail fast, fail typed, never leave torn state."""

import numpy as np
import pytest

from repro.runtime import ResultStore, StoreError, chaos
from repro.runtime.chaos import ChaosSpec


@pytest.fixture(autouse=True)
def clean_chaos(monkeypatch):
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.uninstall()
    yield
    chaos.uninstall()


class TestEnsureWritable:
    def test_writable_directory_passes_and_leaves_no_residue(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.ensure_writable()
        assert not list((tmp_path / "cache").glob(".writable.*"))

    def test_root_that_is_a_file_fails_fast(self, tmp_path):
        bogus = tmp_path / "cache"
        bogus.write_text("not a directory")
        store = ResultStore(bogus)
        with pytest.raises(StoreError, match="not writable"):
            store.ensure_writable()

    def test_uncreatable_root_fails_fast(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        store = ResultStore(blocker / "cache")
        with pytest.raises(StoreError, match="not writable"):
            store.ensure_writable()


class TestPutErrors:
    def test_write_failure_raises_store_error_with_key(self, tmp_path,
                                                       monkeypatch):
        store = ResultStore(tmp_path / "cache")

        def broken_open(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("builtins.open", broken_open)
        with pytest.raises(StoreError, match="'aa11'.*No space left"):
            store.put("aa11", {"x": 1})
        monkeypatch.undo()
        # The failed key never became a phantom hit.
        assert store.get("aa11") is None

    def test_uncreatable_root_raises_store_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        store = ResultStore(blocker / "cache")
        with pytest.raises(StoreError, match="'aa11'"):
            store.put("aa11", {"x": 1})
        assert store.get("aa11") is None


class _EnospcAfter:
    """File-handle proxy: first ``ok_writes`` writes land, the rest ENOSPC.

    Everything else (tell/truncate/seek/flush/close) passes through, so
    the shard writer's truncate-back recovery runs against the real file.
    """

    def __init__(self, fh, ok_writes=1):
        self._fh = fh
        self._budget = ok_writes

    def write(self, data):
        if self._budget <= 0:
            raise OSError(28, "No space left on device")
        self._budget -= 1
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestPackedAppendErrors:
    def test_enospc_mid_append_truncates_and_keeps_index_consistent(
            self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.put("aa01", {"x": 1}, spec={"fn": "f", "seed": 0})

        shards = store._shards
        pid, name, real_fh, idx_fh = shards._writer
        size_before = real_fh.tell()
        shards._writer = (pid, name, _EnospcAfter(real_fh, ok_writes=1),
                          idx_fh)
        with pytest.raises(StoreError, match="mid-write.*No space left"):
            store.put("dd00", {"x": 2, "arr": np.arange(4)},
                      spec={"fn": "f", "seed": 1})
        shards._writer = (pid, name, real_fh, idx_fh)

        # The torn entry was cut away and never indexed.
        assert real_fh.tell() == size_before
        assert store.get("dd00") is None
        # The store keeps working once space returns.
        store.put("aa02", {"x": 3}, spec={"fn": "f", "seed": 2})
        reread = ResultStore(tmp_path / "cache")
        assert sorted(reread.keys()) == ["aa01", "aa02"]
        assert reread.get("aa01") == {"x": 1}
        assert reread.get("aa02") == {"x": 3}


class TestChaosTornWrites:
    def test_committed_entry_survives_a_torn_tail(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        chaos.install(ChaosSpec(seed=0, torn_write_rate=1.0))
        try:
            store.put("aa11", {"x": 1}, spec={"fn": "f", "seed": 0})
            store.put("bb22", {"x": 2}, spec={"fn": "f", "seed": 1})
        finally:
            chaos.uninstall()
        # Each tear retires the writer, so every record got its own shard.
        shard_dir = tmp_path / "cache" / "shards"
        assert len(list(shard_dir.glob("*.shard"))) == 2
        # A fresh reader scans around the garbage tails.
        reread = ResultStore(tmp_path / "cache")
        assert reread.get("aa11") == {"x": 1}
        assert reread.get("bb22") == {"x": 2}
        assert sorted(reread.keys()) == ["aa11", "bb22"]
