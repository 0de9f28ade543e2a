"""Tests for the paged disc store and the LRU buffer pool."""

import pytest

from repro.bang.buffer import BufferPool
from repro.bang.pager import DiskStore, Pager
from repro.errors import PageError


class TestDiskStore:
    def test_allocate_distinct_ids(self):
        disk = DiskStore()
        assert disk.allocate() != disk.allocate()

    def test_write_read_roundtrip(self):
        disk = DiskStore()
        pid = disk.allocate()
        disk.write(pid, {"rows": [1, 2, 3]})
        assert disk.read(pid) == {"rows": [1, 2, 3]}

    def test_read_fresh_page_is_none(self):
        disk = DiskStore()
        assert disk.read(disk.allocate()) is None

    def test_unknown_page_raises(self):
        disk = DiskStore()
        with pytest.raises(PageError):
            disk.read(999)
        with pytest.raises(PageError):
            disk.write(999, [])

    def test_io_counters(self):
        disk = DiskStore(page_size=1024)
        pid = disk.allocate()
        disk.write(pid, [1])
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

    def test_reset_counters(self):
        disk = DiskStore()
        pid = disk.allocate()
        disk.write(pid, [])
        disk.reset_counters()
        assert disk.io_counters()["writes"] == 0


class TestBufferPool:
    def _pool(self, capacity=3):
        disk = DiskStore()
        return disk, BufferPool(disk, capacity=capacity)

    def test_hit_avoids_disk_read(self):
        disk, pool = self._pool()
        pool.install(disk.allocate(), ["x"])
        pool.get(0)
        assert disk.reads == 0
        assert pool.hits == 1

    def test_miss_reads_from_disk(self):
        disk, pool = self._pool(capacity=1)
        p0, p1 = disk.allocate(), disk.allocate()
        pool.install(p0, ["a"])
        pool.install(p1, ["b"])  # evicts p0 (dirty -> writeback)
        assert pool.get(p0) == ["a"]
        assert disk.reads == 1
        assert disk.writes >= 1

    def test_lru_eviction_order(self):
        disk, pool = self._pool(capacity=2)
        pages = [disk.allocate() for _ in range(3)]
        pool.install(pages[0], [0])
        pool.install(pages[1], [1])
        pool.get(pages[0])            # page0 most-recent
        pool.install(pages[2], [2])   # evicts page1
        pool.flush()
        disk.reset_counters()
        pool.get(pages[0])
        assert disk.reads == 0        # still resident
        pool.get(pages[1])
        assert disk.reads == 1        # was evicted

    def test_dirty_writeback_on_eviction(self):
        disk, pool = self._pool(capacity=1)
        p0 = disk.allocate()
        pool.install(p0, ["v1"])
        pool.put(p0, ["v2"])
        p1 = disk.allocate()
        pool.install(p1, [])          # evicts dirty p0
        assert disk.read(p0) == ["v2"]

    def test_flush_writes_all_dirty(self):
        disk, pool = self._pool(capacity=8)
        pages = [disk.allocate() for _ in range(4)]
        for i, p in enumerate(pages):
            pool.install(p, [i])
        pool.flush()
        for i, p in enumerate(pages):
            assert disk.read(p) == [i]

    def test_capacity_must_be_positive(self):
        disk = DiskStore()
        with pytest.raises(ValueError):
            BufferPool(disk, capacity=0)

    def test_counters(self):
        disk, pool = self._pool(capacity=2)
        p = disk.allocate()
        pool.install(p, [1])
        pool.get(p)
        c = pool.counters()
        assert c["buffer_hits"] == 1
        assert c["buffer_resident"] == 1


class TestPagerFacade:
    def test_allocate_get_put(self):
        pager = Pager(buffer_pages=4)
        pid = pager.allocate(["init"])
        assert pager.get(pid) == ["init"]
        pager.put(pid, ["new"])
        assert pager.get(pid) == ["new"]

    def test_io_counters_merged(self):
        pager = Pager(buffer_pages=2)
        for i in range(5):
            pager.allocate([i])
        c = pager.io_counters()
        assert "reads" in c and "buffer_hits" in c
        assert c["buffer_evictions"] >= 3

    def test_eviction_roundtrip_through_disk(self):
        pager = Pager(buffer_pages=2)
        pids = [pager.allocate([i]) for i in range(10)]
        for i, pid in enumerate(pids):
            assert pager.get(pid) == [i]


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
            pager.buffer.discard(pid)    # clean: every scan pin misses
        pager.buffer.capacity = 4
        before = pager.io_counters()["buffer_evictions"]
        while pager.io_counters()["buffer_evictions"] - before < 2000:
            assert sorted(grid.scan()) == list(range(100))   # clean
        assert [e["kind"] for e in store.events.tail()] == ["store.recovery"]
        for i in range(100, 140):        # dirty pages past the capacity
            grid.insert((i / 140,), i)
        kinds = [e["kind"] for e in store.events.tail()]
        assert kinds[0] == "store.recovery"
        evictions = [e for e in store.events.tail()
                     if e["kind"] == "page.evict"]
        assert evictions and all(e["dirty"] is True for e in evictions)
