"""Unit tests for controller statistics bookkeeping."""


import pytest

from repro.controller.stats import ControllerStats, percentile_from_buckets
from repro.dram.commands import RfmProvenance


def test_mean_latency():
    stats = ControllerStats()
    stats.record_completion(100.0, was_hit=False)
    stats.record_completion(300.0, was_hit=False)
    assert stats.mean_latency == 200.0
    assert stats.requests_served == 2


def test_mean_latency_empty_is_zero():
    assert ControllerStats().mean_latency == 0.0


def test_row_hit_rate():
    stats = ControllerStats()
    stats.record_completion(100.0, was_hit=True)
    stats.record_completion(100.0, was_hit=False)
    assert stats.row_hit_rate == 0.5


def test_rfm_counting_by_provenance():
    stats = ControllerStats()
    stats.record_rfm(0.0, RfmProvenance.ABO)
    stats.record_rfm(1.0, RfmProvenance.TB)
    stats.record_rfm(2.0, RfmProvenance.TB)
    assert stats.rfm_count() == 3
    assert stats.rfm_count(RfmProvenance.TB) == 2
    assert stats.rfm_count(RfmProvenance.ACB) == 0


def test_mitigated_row_total_is_a_running_count():
    stats = ControllerStats()
    stats.record_rfm(0.0, RfmProvenance.ABO, rows={0: 5, 1: 9})
    stats.record_rfm(1.0, RfmProvenance.TB)
    stats.record_rfm(2.0, RfmProvenance.TB, bank_id=3, rows={3: 7})
    assert stats.mitigated_row_total == 3


def test_read_latency_histogram_counts_reads_only():
    stats = ControllerStats()
    stats.record_completion(30.0, was_hit=True)
    stats.record_completion(70.0, was_hit=False)
    stats.record_completion(500.0, was_hit=False, is_write=True)
    counts = stats.read_latency_bucket_counts
    assert sum(counts) == 2                      # the write is excluded
    assert counts[1] == 1                        # 30.0 in (20, 40]
    assert counts[3] == 1                        # 70.0 in (60, 80]
    assert stats.read_latency_max == 70.0


def test_read_latency_percentiles_interpolate():
    stats = ControllerStats()
    for _ in range(10):
        stats.record_completion(30.0, was_hit=False)
    # all mass in the (20, 40] bucket: linear interpolation inside it
    assert stats.read_latency_percentile(0.5) == pytest.approx(30.0)
    pcts = stats.latency_percentiles()
    assert set(pcts) == {"p50", "p95", "p99"}
    assert 20.0 < pcts["p50"] < pcts["p95"] < pcts["p99"] <= 40.0


def test_read_latency_overflow_bucket_clamps_to_last_edge():
    stats = ControllerStats()
    stats.record_completion(50_000.0, was_hit=False)
    assert stats.read_latency_percentile(0.99) == 9600.0
    assert stats.read_latency_max == 50_000.0


# ----------------------------------------------------------------------
# percentile_from_buckets (the estimator behind the latency percentiles)
# ----------------------------------------------------------------------
def test_percentile_empty_histogram_is_zero():
    assert percentile_from_buckets((10.0, 20.0), [0, 0, 0], 0.5) == 0.0


def test_percentile_interpolates_inside_bucket():
    # 10 observations uniformly in the (0, 10] bucket: median ~ 5.
    assert percentile_from_buckets((10.0,), [10, 0], 0.5) == pytest.approx(5.0)


def test_percentile_overflow_clamps_to_last_edge():
    assert percentile_from_buckets((10.0, 20.0), [0, 0, 5], 0.99) == 20.0


def test_percentile_rejects_bad_quantile():
    with pytest.raises(ValueError, match="quantile"):
        percentile_from_buckets((10.0,), [1, 0], 1.5)
