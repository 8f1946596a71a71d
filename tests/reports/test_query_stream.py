"""Streaming campaign reads: laziness, counts, and miss fallback."""

import numpy as np
import pytest

from repro.reports.query import (
    CampaignStream,
    fetch_campaign,
    load_cached,
    stream_campaign,
)
from repro.runtime import ResultStore, RunSpec, run_campaign

FN = "repro.runtime.tasks:rng_probe_task"


def make_specs(n: int) -> "tuple[RunSpec, ...]":
    return tuple(
        RunSpec(fn=FN, params={"n": 3, "replicate": i}, seed=i, index=i)
        for i in range(n)
    )


class RecordingStore:
    """Store wrapper that logs every get() the stream performs."""

    def __init__(self, inner):
        self.inner = inner
        self.gets: "list[str]" = []

    def __contains__(self, key):
        return key in self.inner

    def get(self, key, mmap=False):
        self.gets.append(key)
        return self.inner.get(key, mmap=mmap)

    def put(self, key, value, spec=None):
        return self.inner.put(key, value, spec=spec)


@pytest.fixture
def warm(tmp_path):
    """A store with a 6-task campaign fully cached, plus its specs."""
    store = ResultStore(tmp_path / "cache")
    specs = make_specs(6)
    run_campaign(specs, store=store)
    return store, specs


class TestStreamLazy:
    def test_blocks_load_only_when_consumed(self, warm):
        store, specs = warm
        recording = RecordingStore(store)
        stream = stream_campaign(specs, store=recording)
        blocks = stream.blocks(2)
        assert recording.gets == []  # nothing read yet
        first = next(blocks)
        assert len(first) == 2
        assert recording.gets == [s.key for s in specs[:2]]
        next(blocks)
        assert recording.gets == [s.key for s in specs[:4]]
        assert list(blocks) and recording.gets == [s.key for s in specs]

    def test_counts_complete_after_exhaustion(self, warm):
        store, specs = warm
        stream = stream_campaign(specs, store=store)
        blocks = list(stream.blocks(4))
        assert [len(b) for b in blocks] == [4, 2]  # trailing partial block
        assert stream.n_tasks == 6
        assert stream.n_loaded == 6 and stream.n_executed == 0

    def test_values_match_eager_fetch(self, warm):
        store, specs = warm
        eager = fetch_campaign(specs, store=store)
        streamed = [
            value
            for block in stream_campaign(specs, store=store).blocks(2)
            for value in block
        ]
        assert len(streamed) == len(eager.values)
        for got, want in zip(streamed, eager.values):
            assert got["seed"] == want["seed"]
            assert got["draws"] == want["draws"]

    def test_mmap_views_are_read_only(self, warm):
        store, specs = warm
        # Plant a packed record with an array field under a real spec key.
        store.put(specs[0].key, {"values": np.arange(4.0)})
        (block,) = list(stream_campaign(specs[:1], store=store).blocks(1))
        arr = block[0]["values"]
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable

    def test_bad_block_size_rejected(self, warm):
        store, specs = warm
        with pytest.raises(ValueError, match="block size"):
            next(stream_campaign(specs, store=store).blocks(0))


class TestStreamFallback:
    def test_miss_degrades_to_eager_fetch(self, warm):
        store, specs = warm
        extra = make_specs(8)[6:]  # two uncached tasks
        stream = stream_campaign(specs + extra, store=store)
        blocks = list(stream.blocks(4))
        assert sum(len(b) for b in blocks) == 8
        assert stream.n_loaded == 6 and stream.n_executed == 2
        # The recomputed tasks are now cached for the next stream.
        follow = stream_campaign(specs + extra, store=store)
        list(follow.blocks(4))
        assert follow.n_loaded == 8 and follow.n_executed == 0

    def test_no_store_executes_everything(self):
        specs = make_specs(3)
        stream = stream_campaign(specs, store=None)
        blocks = list(stream.blocks(2))
        assert sum(len(b) for b in blocks) == 3
        assert stream.n_loaded == 0 and stream.n_executed == 3

    def test_probe_race_recomputes_single_task(self, warm):
        store, specs = warm

        class VanishingStore(RecordingStore):
            """Passes the presence probe, then loses one record."""

            def get(self, key, mmap=False):
                self.gets.append(key)
                if key == specs[1].key:
                    return None  # gc'd between probe and read
                return self.inner.get(key, mmap=mmap)

        stream = CampaignStream(specs=specs, store=VanishingStore(store))
        values = [v for b in stream.blocks(3) for v in b]
        assert len(values) == 6 and values[1] is not None
        assert stream.n_loaded == 5 and stream.n_executed == 1


class TestLoadCached:
    def test_partition_hits_and_misses(self, warm):
        store, specs = warm
        extra = make_specs(7)[6:]
        values, missing = load_cached(store, specs + extra)
        assert values[-1] is None and all(v is not None for v in values[:6])
        assert missing == list(extra)
