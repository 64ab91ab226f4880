"""SeriesDB shard cache: bounded LRU, dirty pinning, lazy mmap loads.

Contract (see :class:`repro.store.SeriesDB`): at most ``cache_capacity``
clean shards stay parsed in memory; dirty shards are pinned until flush;
a cached shard whose manifest generation changed is dropped and re-read;
``lazy=True`` parses shards zero-copy off an mmap with identical answers.
"""

import numpy as np
import pytest

from repro.store import SeriesDB


def make_series(i, n=600):
    return (np.arange(n, dtype=np.int64) * (i + 1)) % 977


@pytest.fixture()
def root(tmp_path):
    db = SeriesDB(tmp_path / "db", seal_threshold=128, hot_codec="gorilla",
                  cold_codec="leats", cache_capacity=2)
    db.ingest_many({f"s{i}": make_series(i) for i in range(5)})
    db.flush()
    return tmp_path / "db"


class TestLruCache:
    def test_capacity_enforced_after_flush(self, root):
        db = SeriesDB.open(root, cache_capacity=2)
        for i in range(5):
            assert db.access(f"s{i}", 10) == make_series(i)[10]
        info = db.cache_info()
        assert info["cached"] <= 2
        assert info["capacity"] == 2

    def test_dirty_shards_are_pinned(self, root):
        db = SeriesDB.open(root, cache_capacity=1)
        for i in range(5):
            db.ingest(f"s{i}", [7 * i])
        # All five are dirty: none may be evicted, capacity notwithstanding.
        assert db.cache_info()["cached"] == 5
        assert db.cache_info()["dirty"] == 5
        db.flush()
        assert db.cache_info()["cached"] <= 1
        assert db.cache_info()["dirty"] == 0
        # Nothing was lost to eviction.
        reopened = SeriesDB.open(root)
        for i in range(5):
            assert reopened.access(f"s{i}", 600) == 7 * i

    def test_evicted_shard_reloads_correctly(self, root):
        db = SeriesDB.open(root, cache_capacity=1)
        assert db.access("s0", 5) == make_series(0)[5]
        assert db.access("s1", 5) == make_series(1)[5]  # evicts s0
        assert db.cache_info()["cached"] == 1
        assert db.access("s0", 7) == make_series(0)[7]  # cold again: reload
        assert np.array_equal(db.range("s0", 0, 50), make_series(0)[:50])

    def test_unbounded_cache(self, root):
        db = SeriesDB.open(root, cache_capacity=None)
        for i in range(5):
            db.access(f"s{i}", 0)
        assert db.cache_info()["cached"] == 5

    def test_lru_order_keeps_hot_shard(self, root):
        db = SeriesDB.open(root, cache_capacity=2)
        db.access("s0", 0)
        db.access("s1", 0)
        db.access("s0", 1)  # touch s0: s1 is now the LRU entry
        db.access("s2", 0)  # evicts s1, not s0
        assert "s0" in db._stores and "s1" not in db._stores

    def test_batch_wider_than_cache_keeps_every_ack(self, tmp_path):
        """ingest_many pins each shard as it loads it: a batch spanning more
        clean shards than the cache holds must not mutate an evicted copy."""
        db = SeriesDB(tmp_path / "db", cache_capacity=4)
        batch = {f"s{i}": np.arange(10, dtype=np.int64) + i for i in range(6)}
        db.ingest_many(batch)
        db.flush()  # every shard is clean now, so evictable
        assert db.ingest_many(batch) == {sid: 20 for sid in batch}
        assert [db.count(sid) for sid in batch] == [20] * 6
        db.flush()
        reopened = SeriesDB.open(tmp_path / "db")
        for sid, values in batch.items():
            assert np.array_equal(reopened.decompress(sid), np.tile(values, 2))

    def test_batch_wider_than_cache_reads_each_shard_once(self, root, monkeypatch):
        """Counting what an evicted shard buffers needs no load, and the
        batch's cached shards are pinned before the others load: each
        evicted shard is read once, and no cached one is read again."""
        db = SeriesDB.open(root, cache_capacity=2)
        for i in (3, 4):
            db.access(f"s{i}", 0)
        reads = []
        real = SeriesDB._read_shard

        def counting(self, path):
            reads.append(path.name)
            return real(self, path)

        monkeypatch.setattr(SeriesDB, "_read_shard", counting)
        db.ingest_many({f"s{i}": [i] for i in range(5)})
        assert sorted(reads) == sorted(
            db.info()["series"][f"s{i}"]["shard"].split("/")[1] for i in range(3)
        )
        db.flush()
        reopened = SeriesDB.open(root)
        for i in range(5):
            assert reopened.access(f"s{i}", 600) == i

    def test_invalid_capacity_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cache_capacity"):
            SeriesDB(tmp_path / "x", cache_capacity=0)

    def test_store_handle_is_pinned(self, root):
        """store() pins its shard: mutations through the returned handle
        survive later queries that would otherwise evict it."""
        db = SeriesDB.open(root, cache_capacity=1)
        handle = db.store("s0")
        for i in range(1, 5):
            db.access(f"s{i}", 0)
        assert db._stores["s0"] is handle
        handle.consolidate()
        db.flush()
        reopened = SeriesDB.open(root)
        assert np.array_equal(reopened.decompress("s0"), make_series(0))
        # 600 values at seal_threshold=128: 4 sealed blocks (512 values)
        # consolidate into the cold tier, 88 stay in the write buffer.
        assert reopened.info()["series"]["s0"]["cold_values"] == 512


class TestGenerationInvalidation:
    def test_stale_generation_is_reloaded(self, root):
        db = SeriesDB.open(root, cache_capacity=4)
        db.access("s0", 0)  # cache s0 under its current generation
        entry = db._series["s0"]
        # Simulate the shard moving to a new generation behind the cache
        # (as a flush-by-another-handle would): rename the file + entry.
        old = db.root / entry["shard"]
        new_name = entry["shard"].replace("s0-", "s0-gen2-")
        (db.root / new_name).write_bytes(old.read_bytes())
        entry["shard"] = new_name
        assert db._cached_gen["s0"] != new_name
        assert db.access("s0", 3) == make_series(0)[3]  # re-read, not stale
        assert db._cached_gen["s0"] == new_name


class TestLazyShardLoads:
    def test_lazy_answers_match_eager(self, root):
        eager = SeriesDB.open(root)
        lazy = SeriesDB.open(root, lazy=True, cache_capacity=2)
        assert lazy.cache_info()["lazy"]
        for i in range(5):
            sid = f"s{i}"
            assert lazy.access(sid, 123) == eager.access(sid, 123)
            assert np.array_equal(
                lazy.range(sid, 50, 200), eager.range(sid, 50, 200)
            )
            assert np.array_equal(
                lazy.decompress(sid), eager.decompress(sid)
            )

    def test_lazy_survives_flush_replacing_the_file(self, root):
        """Parsed mmapped blocks must stay valid after their file is
        replaced and unlinked by a later flush (the map holds the inode)."""
        db = SeriesDB.open(root, lazy=True, cache_capacity=None)
        before = db.decompress("s0")
        db.mark_dirty("s0")
        db.flush()  # rewrites under a fresh generation, unlinks the old file
        assert np.array_equal(db.decompress("s0"), before)

    def test_lazy_ingest_flush_roundtrip(self, tmp_path):
        db = SeriesDB(tmp_path / "db", seal_threshold=64, cold_codec="leats",
                      lazy=True, cache_capacity=2)
        db.ingest_many({f"t{i}": make_series(i, 300) for i in range(4)})
        db.flush()
        db.compact()
        reopened = SeriesDB.open(tmp_path / "db", lazy=True)
        for i in range(4):
            assert np.array_equal(
                reopened.decompress(f"t{i}"), make_series(i, 300)
            )
