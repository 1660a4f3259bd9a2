"""The RFM log: its memory per RFM and its read side."""

import gc
import tracemalloc

import pytest

from repro.controller.controller import MemoryController
from repro.controller.stats import NO_ROWS, ControllerStats, RfmRecord
from repro.core.engine import Engine
from repro.dram.commands import RfmProvenance
from repro.dram.config import small_test_config
from repro.mitigations import TpracPolicy

ABO, TB = RfmProvenance.ABO, RfmProvenance.TB

#: (time, provenance, bank_id, rows) of a log mixing all-bank ABO and
#: TB RFMs with per-bank TB RFMs, with and without mitigated rows
ENTRIES = [
    (10.0, ABO, -1, {0: 5, 3: 9}),
    (20.0, TB, -1, None),
    (30.0, TB, 2, {2: 7}),
    (40.0, TB, 1, None),
    (50.0, ABO, -1, None),
    (60.0, TB, -1, {1: 4}),
]


def test_an_idle_tb_rfm_retains_at_most_32_bytes():
    """TPRAC issues a TB-RFM every TB-Window even on an idle channel,
    so the log grows with simulated time: 2,000 idle RFMs must retain
    at most 32 bytes each (a record object per RFM kept 201.5)."""
    engine = Engine()
    controller = MemoryController(
        engine, small_test_config(nbo=256), policy=TpracPolicy(tb_window=2000.0)
    )
    engine.run(until=100_000.0)
    logged = controller.stats.rfm_count()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine.run(until=4_100_000.0)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rfms = controller.stats.rfm_count(TB) - logged
    assert rfms == controller.stats.rfm_count() - logged == 2000
    assert retained / rfms <= 32


def _mixed_stats():
    stats = ControllerStats()
    for time, provenance, bank_id, rows in ENTRIES:
        stats.record_rfm(time, provenance, bank_id, rows)
    return stats


def test_log_reads_back_every_rfm_as_a_record():
    stats = _mixed_stats()
    log = stats.rfm_records
    expected = [
        RfmRecord(time, provenance, bank_id, rows or {})
        for time, provenance, bank_id, rows in ENTRIES
    ]
    assert len(log) == 6
    assert list(log) == expected
    assert log[0] == expected[0] and log[2].mitigated_rows == {2: 7}
    assert log[-1] == expected[-1] and log[-3].bank_id == 1
    assert log[1:4] == expected[1:4]
    assert log[4:] == expected[4:] and log[-2:] == expected[-2:]
    assert log[::2] == expected[::2] and log[6:] == []
    assert list(log.times) == [entry[0] for entry in ENTRIES]
    # Keys keep their insertion (ascending bank) order.
    assert list(log[0].mitigated_rows.items()) == [(0, 5), (3, 9)]
    assert log[1].mitigated_rows is NO_ROWS
    with pytest.raises(TypeError):
        log[0].mitigated_rows[0] = 1  # read-only
    with pytest.raises(IndexError):
        log[6]
    with pytest.raises(IndexError):
        log[-7]
    assert stats.rfm_count() == 6
    assert stats.rfm_count(ABO) == 2 and stats.rfm_count(TB) == 4
    assert stats.rfm_count(RfmProvenance.ACB) == 0
    assert log.counts() == {ABO: 2, TB: 4}
    assert list(log.counts()) == [ABO, TB]  # first-issue order
