"""Tests for the paged disc store and the LRU buffer pool."""

from itertools import chain

import pytest

from repro.bang.buffer import BufferPool
from repro.bang.pager import DiskStore, Pager
from repro.engine.stats import measure
from repro.errors import PageError

from .pages import leaf, unpacked


class TestDiskStore:
    def test_allocate_distinct_ids(self):
        disk = DiskStore()
        assert disk.allocate() != disk.allocate()

    def test_write_read_roundtrip(self):
        disk = DiskStore()
        pid = disk.allocate()
        disk.write(pid, leaf(1, 2, 3))
        assert unpacked(disk, pid, disk.read(pid)) == leaf(1, 2, 3)

    def test_read_fresh_page_is_none(self):
        disk = DiskStore()
        assert disk.read(disk.allocate()) is None

    def test_unknown_page_raises(self):
        disk = DiskStore()
        with pytest.raises(PageError):
            disk.read(999)
        with pytest.raises(PageError):
            disk.write(999, leaf())

    def test_io_counters(self):
        disk = DiskStore(page_size=1024)
        pid = disk.allocate()
        disk.write(pid, leaf(1))
        disk.read(pid)
        c = disk.io_counters()
        assert c["reads"] == 1 and c["writes"] == 1
        assert c["bytes_read"] == 1024 and c["bytes_written"] == 1024

    def test_free_removes(self):
        disk = DiskStore()
        pid = disk.allocate()
        disk.free(pid)
        with pytest.raises(PageError):
            disk.read(pid)


class TestBufferPool:
    def _pool(self, capacity=3):
        disk = DiskStore()
        return disk, BufferPool(disk, capacity=capacity)

    def test_hit_avoids_disk_read(self):
        disk, pool = self._pool()
        pool.install(disk.allocate(), leaf("x"))
        pool.get(0)
        assert disk.reads == 0
        assert pool.hits == 1

    def test_miss_reads_from_disk(self):
        disk, pool = self._pool(capacity=1)
        p0, p1 = disk.allocate(), disk.allocate()
        pool.install(p0, leaf("a"))
        pool.install(p1, leaf("b"))  # evicts p0 (dirty -> writeback)
        assert unpacked(disk, p0, pool.get(p0)) == leaf("a")
        assert disk.reads == 1
        assert disk.writes >= 1

    def test_lru_eviction_order(self):
        disk, pool = self._pool(capacity=2)
        pages = [disk.allocate() for _ in range(3)]
        pool.install(pages[0], leaf(0))
        pool.install(pages[1], leaf(1))
        pool.get(pages[0])            # page0 most-recent
        pool.install(pages[2], leaf(2))   # evicts page1
        pool.flush()
        with measure(disk) as run:
            pool.get(pages[0])
        assert run["reads"] == 0      # still resident
        with measure(disk) as run:
            pool.get(pages[1])
        assert run["reads"] == 1      # was evicted

    def test_dirty_writeback_on_eviction(self):
        disk, pool = self._pool(capacity=1)
        p0 = disk.allocate()
        pool.install(p0, leaf("v1"))
        pool.put(p0, leaf("v2"))
        p1 = disk.allocate()
        pool.install(p1, leaf())      # evicts dirty p0
        assert unpacked(disk, p0, disk.read(p0)) == leaf("v2")

    def test_flush_writes_all_dirty(self):
        disk, pool = self._pool(capacity=8)
        pages = [disk.allocate() for _ in range(4)]
        for i, p in enumerate(pages):
            pool.install(p, leaf(i))
        pool.flush()
        for i, p in enumerate(pages):
            assert unpacked(disk, p, disk.read(p)) == leaf(i)

    def test_capacity_must_be_positive(self):
        disk = DiskStore()
        with pytest.raises(ValueError):
            BufferPool(disk, capacity=0)

    def test_counters(self):
        disk, pool = self._pool(capacity=2)
        p = disk.allocate()
        pool.install(p, leaf(1))
        pool.get(p)
        c = pool.counters()
        assert c["buffer_hits"] == 1
        assert c["buffer_resident"] == 1


class TestPagerFacade:
    def test_allocate_get_put(self):
        pager = Pager(buffer_pages=4)
        pid = pager.allocate(leaf("init"))
        assert pager.get(pid) == leaf("init")
        pager.put(pid, leaf("new"))
        assert pager.get(pid) == leaf("new")

    def test_io_counters_merged(self):
        pager = Pager(buffer_pages=2)
        for i in range(5):
            pager.allocate(leaf(i))
        c = pager.io_counters()
        assert "reads" in c and "buffer_hits" in c
        assert c["buffer_evictions"] >= 3

    def test_eviction_roundtrip_through_disk(self):
        pager = Pager(buffer_pages=2)
        pids = [pager.allocate(leaf(i)) for i in range(10)]
        for i, pid in enumerate(pids):
            assert unpacked(pager.disk, pid, pager.get(pid)) == leaf(i)


class TestEvictionEvents:
    def test_flight_recorder_keeps_only_dirty_evictions(self, tmp_path):
        from repro.bang.grid import BangGrid
        from repro.edb.store import ExternalStore

        store = ExternalStore.open(str(tmp_path / "db.edb"))
        assert [e["kind"] for e in store.events.tail()] == ["store.recovery"]
        pager = store.pager
        grid = BangGrid(1, pager, bucket_capacity=4)
        for i in range(100):             # ~50 leaves, all resident
            grid.insert((i / 100,), i)
        pager.flush()
        for pid in list(pager.buffer._frames):
            pager.buffer.discard(pid)    # clean: every scan read misses
        pager.buffer.capacity = 4
        before = pager.io_counters()["buffer_evictions"]
        while pager.io_counters()["buffer_evictions"] - before < 2000:
            # clean
            assert sorted(chain.from_iterable(grid.scan())) == list(range(100))
        assert [e["kind"] for e in store.events.tail()] == ["store.recovery"]
        for i in range(100, 140):        # dirty pages past the capacity
            grid.insert((i / 140,), i)
        kinds = [e["kind"] for e in store.events.tail()]
        assert kinds[0] == "store.recovery"
        evictions = [e for e in store.events.tail()
                     if e["kind"] == "page.evict"]
        assert evictions and all(e["dirty"] is True for e in evictions)


class TestCheckpointCarriesNoPool:
    """The buffer pool is runtime state: a checkpoint carries the disc
    and the pool's capacity, and every store that starts from one —
    loaded, reopened with nothing to replay, or a follower's bootstrap —
    reports no buffer or disc work before its first query."""

    @staticmethod
    def _saved(tmp_path):
        from repro import EduceStar
        from repro.edb.store import ExternalStore
        path = str(tmp_path / "kb.edb")
        store = ExternalStore.open(path)
        store.pager.buffer.capacity = 8
        kb = EduceStar(store=store)
        kb.store_relation("p", [(i, i % 7) for i in range(600)])
        assert len(list(kb.solve("p(X, 3)"))) == 86
        store.save(path)
        worked = store.io_counters()
        assert worked["buffer_hits"] and worked["writes"]
        return path

    @staticmethod
    def _assert_no_work(store):
        counters = store.pager.io_counters()
        work = {key: value for key, value in counters.items()
                if key.startswith(("buffer_", "latch_"))
                or key in ("reads", "writes", "bytes_read",
                           "bytes_written", "page_corruptions")}
        assert len(work) == 12 and set(work.values()) == {0}, work
        assert not any(h.count for h in store.pager.histograms().values())
        assert store.pager.buffer.capacity == 8

    def test_a_loaded_store(self, tmp_path):
        from repro.edb.store import ExternalStore
        self._assert_no_work(ExternalStore.load(self._saved(tmp_path)))

    def test_a_store_reopened_with_an_empty_log(self, tmp_path):
        from repro.edb.store import ExternalStore
        store = ExternalStore.open(self._saved(tmp_path))
        assert store.recovery.wal_records_seen == 0
        self._assert_no_work(store)

    def test_a_bootstrapped_follower(self, tmp_path):
        from repro.replication import Replica
        replica = Replica("r0", self._saved(tmp_path), str(tmp_path / "r0"),
                          workers=1, start=False)
        try:
            self._assert_no_work(replica.store)
        finally:
            replica.shutdown()

    def test_the_pool_itself_is_not_picklable(self):
        import pickle
        pager = Pager(buffer_pages=3)
        with pytest.raises(TypeError):
            pickle.dumps(pager.buffer)
        copy = pickle.loads(pickle.dumps(pager))
        assert copy.buffer is not pager.buffer
        assert copy.buffer.capacity == 3
