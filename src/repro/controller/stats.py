"""Controller statistics: latency aggregates, the RFM log.

The defense evaluation observes *how many RFMs of which provenance
were issued*; the performance experiments observe latency and row-hit
aggregates.  Both are recorded here.  (The attacks time their own
probes through ``MemRequest.on_complete``.)

Hot-path design: requests are kept as **aggregate counters only** —
per-request scalars plus a fixed-bucket read-latency histogram — so a
long performance run allocates nothing per request.  Every RFM is
logged, and RFMs are not rare: TPRAC issues one per TB-Window whether
or not the channel is busy, so one 80 ms TPRAC AES attack logs 42,094
RFMs for 1,296 requests.  :class:`RfmLog` therefore keeps one column
per field instead of one object per RFM: an RFM that mitigated nothing
costs a double and a byte (about 10 bytes retained, with the columns'
over-allocation, against 201.5 for the record object, empty dict and
boxed float it used to keep).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
    Union, overload,
)

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


#: The mitigated rows of an RFM that mitigated none: one shared,
#: read-only empty mapping, so such an RFM allocates nothing.
NO_ROWS: Mapping[int, int] = MappingProxyType({})

#: Provenance codes: :class:`RfmLog` stores a provenance as its index
#: here.  ``tuple.index`` compares enum members by identity, in C, so
#: encoding one calls no Python-level ``Enum.__hash__``.
_PROVENANCES: Tuple[RfmProvenance, ...] = tuple(RfmProvenance)


class RfmRecord(NamedTuple):
    """One issued RFM command, as :class:`RfmLog` reads it back."""

    time: float
    provenance: RfmProvenance
    #: the RFMpb command's bank; -1 for an all-bank RFM
    bank_id: int
    #: bank -> mitigated row, read-only (:data:`NO_ROWS` when none)
    mitigated_rows: Mapping[int, int]


class RfmLog:
    """Every RFM one controller issued, in issue order, as columns.

    Times sit in an ``array('d')`` and provenances in a ``bytearray``
    of codes; bank ids and mitigated rows are kept by RFM index, only
    for the RFMs that have them.  ``len``, indexing (negative too),
    slicing and iteration build :class:`RfmRecord` values on demand;
    the counts and :attr:`times` read the columns without building any.
    """

    __slots__ = ("times", "_codes", "_banks", "_rows")

    def __init__(self) -> None:
        #: issue time (ns) of each RFM
        self.times: array[float] = array("d")
        #: each RFM's provenance, as its index in _PROVENANCES
        self._codes = bytearray()
        #: RFM index -> bank, for the per-bank (RFMpb) RFMs only
        self._banks: Dict[int, int] = {}
        #: RFM index -> bank -> row, for the RFMs that mitigated a row
        self._rows: Dict[int, Mapping[int, int]] = {}

    def append(
        self,
        time: float,
        provenance: RfmProvenance,
        bank_id: int = -1,
        rows: Optional[Mapping[int, int]] = None,
    ) -> None:
        """Log one RFM; the log keeps ``rows``, which must not change."""
        index = len(self._codes)
        self.times.append(time)
        self._codes.append(_PROVENANCES.index(provenance))
        if bank_id >= 0:
            self._banks[index] = bank_id
        if rows:
            self._rows[index] = rows

    def count(self, provenance: RfmProvenance) -> int:
        """RFMs of ``provenance``."""
        return self._codes.count(_PROVENANCES.index(provenance))

    def counts(self) -> Dict[RfmProvenance, int]:
        """RFMs per provenance, in the order each first appears."""
        codes = self._codes
        firsts = sorted(
            (codes.find(code), code) for code in range(len(_PROVENANCES))
        )
        return {
            _PROVENANCES[code]: codes.count(code)
            for first, code in firsts
            if first >= 0
        }

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[RfmRecord]:
        return map(self._record, range(len(self._codes)))

    @overload
    def __getitem__(self, index: int) -> RfmRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[RfmRecord]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[RfmRecord, List[RfmRecord]]:
        # range() resolves negative indices and slices, and raises
        # IndexError out of range, exactly as a list would.
        positions = range(len(self._codes))[index]
        if isinstance(positions, range):
            return [self._record(i) for i in positions]
        return self._record(positions)

    def _record(self, index: int) -> RfmRecord:
        rows = self._rows.get(index)
        return RfmRecord(
            self.times[index],
            _PROVENANCES[self._codes[index]],
            self._banks.get(index, -1),
            NO_ROWS if rows is None else MappingProxyType(rows),
        )


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
    #: every issued RFM (:meth:`record_rfm` is the only writer)
    rfm_records: RfmLog = field(default_factory=RfmLog)
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

    def record_rfm(
        self,
        time: float,
        provenance: RfmProvenance,
        bank_id: int = -1,
        rows: Optional[Mapping[int, int]] = None,
    ) -> None:
        """Log one issued RFM: ``bank_id`` is an RFMpb's bank (-1 for
        all-bank), ``rows`` maps bank -> mitigated row."""
        self.rfm_records.append(time, provenance, bank_id, rows)
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
        """Number of RFMs issued, optionally of one provenance only."""
        log = self.rfm_records
        return len(log) if provenance is None else log.count(provenance)

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
