"""Controller statistics: latency aggregates, RFM records.

The defense evaluation observes *how many RFMs of which provenance
were issued*; the performance experiments observe latency and row-hit
aggregates.  Both are recorded here.  (The attacks time their own
probes through ``MemRequest.on_complete``.)

Hot-path design: requests are kept as **aggregate counters only** —
per-request scalars plus per-provenance running totals and a
fixed-bucket read-latency histogram — so a long performance run
allocates nothing per request.  RFM records are always kept (RFMs are
~10⁴× rarer than requests) but counted incrementally so
:meth:`rfm_count` never rescans the list.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dram.commands import RfmProvenance

#: Upper bucket bounds (ns) of the always-on read-latency histogram.
#: Spans the model's timing range: sub-tRC row hits (~20-60 ns) up to
#: multi-RFM/refresh queueing tails (a REFab stalls 410 ns, an ABO
#: burst up to 4x350 ns, and queueing compounds into the microseconds).
#: Values above the last edge land in one overflow bucket whose
#: percentile estimate clamps to that edge.
LATENCY_BUCKET_BOUNDS = (
    20.0, 40.0, 60.0, 80.0, 100.0, 150.0, 200.0, 300.0, 400.0, 600.0,
    800.0, 1200.0, 1600.0, 2400.0, 3200.0, 4800.0, 6400.0, 9600.0,
)


def percentile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Estimate the ``q``-quantile (0..1) of a fixed-bucket histogram.

    Linear interpolation inside the bucket holding the quantile rank;
    the overflow bucket reports its lower bound (the histogram cannot
    see past its last edge).  Returns 0.0 for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be within [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            lower = bounds[index - 1] if index > 0 else 0.0
            if index >= len(bounds):
                return float(lower)  # overflow bucket: clamp to last edge
            upper = bounds[index]
            fraction = (rank - cumulative) / count
            return float(lower + (upper - lower) * fraction)
        cumulative += count
    return float(bounds[-1]) if bounds else 0.0


@dataclass
class RfmRecord:
    """One issued RFM command (burst member)."""

    time: float
    provenance: RfmProvenance
    bank_id: int = -1            # -1 for all-bank
    mitigated_rows: Dict[int, int] = field(default_factory=dict)  # bank -> row


@dataclass
class ControllerStats:
    """Aggregate statistics for one simulation run."""

    requests_served: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    total_latency: float = 0.0
    rfm_records: List[RfmRecord] = field(default_factory=list)
    #: per-provenance running RFM counts (avoids rescanning rfm_records)
    rfm_counts: Dict[RfmProvenance, int] = field(default_factory=dict)
    #: total rows mitigated across all RFMs (energy model input)
    mitigated_row_total: int = 0

    def __post_init__(self) -> None:
        # The always-on read-latency histogram lives in plain (non-field)
        # attributes: dataclass fields would enter dataclasses.asdict /
        # to_jsonable output and change persisted artifact bytes.  One
        # bisect per read keeps p50/p95/p99 available on every run.
        self.read_latency_bucket_counts: List[int] = (
            [0] * (len(LATENCY_BUCKET_BOUNDS) + 1)
        )
        self.read_latency_max: float = 0.0

    # ------------------------------------------------------------------
    def record_completion(
        self, latency: float, was_hit: bool, is_write: bool = False
    ) -> None:
        """Account one completed request (hot path: counters only).

        Read latencies (``is_write=False``) additionally land in the
        fixed-bucket histogram behind the percentile accessors.
        """
        self.requests_served += 1
        self.total_latency += latency
        if not is_write:
            self.read_latency_bucket_counts[
                bisect_left(LATENCY_BUCKET_BOUNDS, latency)
            ] += 1
            if latency > self.read_latency_max:
                self.read_latency_max = latency
        if was_hit:
            self.row_hits += 1

    def record_rfm(self, record: RfmRecord) -> None:
        """Append one issued-RFM record and bump its provenance counter."""
        self.rfm_records.append(record)
        counts = self.rfm_counts
        provenance = record.provenance
        counts[provenance] = counts.get(provenance, 0) + 1
        rows = record.mitigated_rows
        if rows:
            self.mitigated_row_total += len(rows)

    # ------------------------------------------------------------------
    @property
    def mean_latency(self) -> float:
        if self.requests_served == 0:
            return 0.0
        return self.total_latency / self.requests_served

    @property
    def row_hit_rate(self) -> float:
        if self.requests_served == 0:
            return 0.0
        return self.row_hits / self.requests_served

    def rfm_count(self, provenance: Optional[RfmProvenance] = None) -> int:
        """Number of RFMs issued, optionally filtered by provenance. O(1)."""
        if provenance is None:
            return len(self.rfm_records)
        return self.rfm_counts.get(provenance, 0)

    # ------------------------------------------------------------------
    def read_latency_percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) of read latency, in ns.

        Linear interpolation inside the always-on fixed-bucket
        histogram (:data:`LATENCY_BUCKET_BOUNDS`); the overflow bucket
        clamps to the last edge (see :attr:`read_latency_max` for the
        true tail).
        """
        return percentile_from_buckets(
            LATENCY_BUCKET_BOUNDS, self.read_latency_bucket_counts, q
        )

    def latency_percentiles(self) -> Dict[str, float]:
        """``{"p50", "p95", "p99"}`` read-latency estimates in ns."""
        return {
            "p50": self.read_latency_percentile(0.50),
            "p95": self.read_latency_percentile(0.95),
            "p99": self.read_latency_percentile(0.99),
        }
