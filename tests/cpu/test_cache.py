"""Unit tests for one cache level of the cache model (``SetAssocCache``).

Unlike a fill-on-miss cache, a demand miss here only probes: the owner
installs the line when the fill arrives, so each test installs lines
explicitly.
"""

import pytest

from repro.core.engine import Engine
from repro.cpu.hierarchy import SetAssocCache
from tests.cpu.test_hierarchy import FakeMemory, make_hierarchy, run_requests


def test_miss_then_hit():
    cache = SetAssocCache("L1", size_bytes=4096, ways=4)
    assert not cache.access(0)
    assert cache.install(0) is None
    assert cache.access(0)


def test_size_must_divide():
    with pytest.raises(ValueError, match="divisible"):
        SetAssocCache("bad", size_bytes=1000, ways=3)


def test_lru_eviction_order():
    # 2 ways, 1 set: the third distinct line evicts the least recent.
    cache = SetAssocCache("tiny", size_bytes=128, ways=2)
    cache.install(0)        # line A
    cache.install(64)       # line B
    assert cache.access(0)  # touch A -> B becomes LRU
    cache.install(128)      # evicts B
    assert cache.contains(0)
    assert not cache.contains(64)
    assert cache.contains(128)


def test_dirty_eviction_reports_writeback_address():
    cache = SetAssocCache("tiny", size_bytes=128, ways=2)
    cache.install(0, dirty=True)
    cache.install(64)
    assert cache.install(128) == (0, True)
    assert cache.stats.writebacks == 1


def test_clean_eviction_no_writeback():
    cache = SetAssocCache("tiny", size_bytes=128, ways=2)
    cache.install(0)
    cache.install(64)
    assert cache.install(128) == (0, False)
    assert cache.stats.evictions == 1
    assert cache.stats.writebacks == 0


def test_write_hit_marks_dirty():
    cache = SetAssocCache("tiny", size_bytes=128, ways=2)
    cache.install(0)
    assert cache.access(0, is_write=True)
    cache.install(64)
    assert cache.install(128) == (0, True)


def test_flush_removes_line():
    cache = SetAssocCache("tiny", size_bytes=128, ways=2)
    cache.install(0, dirty=True)
    assert cache.flush(0) is True
    assert not cache.contains(0)
    assert cache.flush(0) is False
    assert cache.stats.flushes == 2


def test_hit_rate_stat():
    cache = SetAssocCache("tiny", size_bytes=128, ways=2)
    assert not cache.access(0)
    cache.install(0)  # fills are not demand accesses
    assert cache.access(0)
    assert cache.stats.hit_rate == 0.5


def test_clean_victims_never_reach_dram():
    # Read-only traffic through a 1-way L1 and a 1-way L2: every new
    # line evicts a clean victim, and none of them may become a write.
    engine = Engine()
    memory = FakeMemory(engine)
    hierarchy = make_hierarchy(
        engine, memory, num_cores=1, l1_size=64, l1_ways=1, l2_size=64, l2_ways=1
    )
    run_requests(hierarchy, engine, [(0, False, 0), (64, False, 0), (128, False, 0)])
    assert memory.reads == [0, 64, 128]
    assert memory.writes == []
    assert hierarchy.dram_writebacks == 0
