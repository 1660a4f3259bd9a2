"""Event-driven cache hierarchy: private L1s, a shared banked L2, MSHRs.

The simulator's one cache model: per-core private L1 data caches and
one shared, banked, write-back / write-allocate L2 between the trace
cores and the :class:`~repro.controller.memory_system.MemorySystem`
facade.  The hierarchy lives on the discrete-event engine: lookups
take simulated time, the L2's banks serialize concurrent probes,
misses allocate MSHRs that merge same-line requests into one DRAM
fill, and dirty victims become real DRAM write traffic — so cache
behaviour composes with DRAM timing and every
scheduler/refresh/mitigation axis sees the filtered, bursty request
stream a real memory controller would.

Fill semantics are fill-at-completion: a missing line is installed
(L2, then each waiting core's L1) only when DRAM returns it, and every
request that missed on that line in the meantime has merged into the
MSHR.  When all MSHRs are busy, further misses wait in a FIFO stall
queue; each completed fill releases one stalled request.

Selection goes through :data:`CACHES` exactly like schedulers and
mappings: ``SystemConfig(cache="l1l2", cache_params={...})``.  The
``"none"`` spelling is the historical direct wiring (no hierarchy
object is constructed at all, keeping the default path byte-stable).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.controller.request import MemRequest
from repro.cpu.interconnect import Interconnect
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import Engine
    from repro.obs.trace import TraceRecorder

#: Registry of cache hierarchies addressed by ``SystemConfig.cache`` /
#: the campaign ``cache`` axis.
CACHES = Registry("cache", "cache")

#: ``cache="none"`` — cores enqueue straight into the memory system.
#: Registered as a factory returning ``None`` so validation and
#: construction are uniform across every spelling of the axis.
CACHES.register("none", lambda *args, **kwargs: None)

#: Replacement policies :class:`SetAssocCache` understands.
REPLACEMENT_POLICIES = ("lru", "plru")


@dataclass
class CacheStats:
    """Per-level demand and eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssocCache:
    """One set-associative cache level with pluggable replacement.

    Tags and dirty bits only — data never matters for timing.  A miss
    does **not** fill the line: :meth:`access` only probes/updates, and
    the owner installs the line via :meth:`install` when the fill
    actually arrives, so MSHR-covered windows behave like real
    hardware.

    ``replacement`` is ``"lru"`` (exact, recency-stamped) or ``"plru"``
    (tree pseudo-LRU; requires a power-of-two way count).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        line_bytes: int = 64,
        replacement: str = "lru",
    ) -> None:
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError(f"{name}: size must be divisible by ways*line")
        if replacement not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown replacement {replacement!r} (cache param "
                f"'replacement'); have {sorted(REPLACEMENT_POLICIES)}"
            )
        if replacement == "plru" and ways & (ways - 1):
            raise ValueError(
                f"{name}: plru replacement needs a power-of-two way "
                f"count, got {ways}"
            )
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        self.replacement = replacement
        self.stats = CacheStats()
        sets = self.num_sets
        #: per-set tag -> way map for O(1) probes
        self._where: List[Dict[int, int]] = [dict() for _ in range(sets)]
        self._tags: List[List[Optional[int]]] = [
            [None] * ways for _ in range(sets)
        ]
        self._dirty: List[List[bool]] = [[False] * ways for _ in range(sets)]
        if replacement == "lru":
            self._stamp: List[List[int]] = [[0] * ways for _ in range(sets)]
            self._tick = 0
        else:
            self._tree: List[List[bool]] = [
                [False] * (ways - 1) for _ in range(sets)
            ]

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------
    def locate(self, phys_addr: int) -> Tuple[int, int]:
        """``phys_addr`` -> (set index, tag)."""
        line = phys_addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def line_addr(self, set_index: int, tag: int) -> int:
        """Inverse of :meth:`locate`: the line's base physical address."""
        return (tag * self.num_sets + set_index) * self.line_bytes

    # ------------------------------------------------------------------
    # Replacement bookkeeping
    # ------------------------------------------------------------------
    def _touch(self, set_index: int, way: int) -> None:
        if self.replacement == "lru":
            self._tick += 1
            self._stamp[set_index][way] = self._tick
        else:
            tree = self._tree[set_index]
            node, lo, hi = 0, 0, self.ways
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if way < mid:  # accessed left half -> victim on the right
                    tree[node] = True
                    node, hi = 2 * node + 1, mid
                else:
                    tree[node] = False
                    node, lo = 2 * node + 2, mid

    def _victim_way(self, set_index: int) -> int:
        tags = self._tags[set_index]
        for way, tag in enumerate(tags):  # invalid ways first
            if tag is None:
                return way
        if self.replacement == "lru":
            stamps = self._stamp[set_index]
            return min(range(self.ways), key=stamps.__getitem__)
        tree = self._tree[set_index]
        node, lo, hi = 0, 0, self.ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if tree[node]:  # bit points right
                node, lo = 2 * node + 2, mid
            else:
                node, hi = 2 * node + 1, mid
        return lo

    # ------------------------------------------------------------------
    # Probing and filling
    # ------------------------------------------------------------------
    def contains(self, phys_addr: int) -> bool:
        """Whether the line holding ``phys_addr`` is resident (no touch)."""
        set_index, tag = self.locate(phys_addr)
        return tag in self._where[set_index]

    def access(self, phys_addr: int, is_write: bool = False) -> bool:
        """Demand probe: touch + dirty on hit, count a miss otherwise.

        Returns whether the line was resident.  Misses do **not** fill;
        call :meth:`install` when the line arrives.
        """
        set_index, tag = self.locate(phys_addr)
        way = self._where[set_index].get(tag)
        if way is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        if is_write:
            self._dirty[set_index][way] = True
        self._touch(set_index, way)
        return True

    def install(
        self, phys_addr: int, dirty: bool = False
    ) -> Optional[Tuple[int, bool]]:
        """Install (or re-mark) the line; returns the evicted victim.

        The return value is ``(victim_line_addr, victim_dirty)`` when an
        occupied way was displaced, else ``None``.  Installing a line
        that is already resident just ORs in ``dirty`` and touches it.
        """
        set_index, tag = self.locate(phys_addr)
        where = self._where[set_index]
        way = where.get(tag)
        if way is not None:
            if dirty:
                self._dirty[set_index][way] = True
            self._touch(set_index, way)
            return None
        way = self._victim_way(set_index)
        tags = self._tags[set_index]
        victim: Optional[Tuple[int, bool]] = None
        victim_tag = tags[way]
        if victim_tag is not None:
            self.stats.evictions += 1
            victim_dirty = self._dirty[set_index][way]
            if victim_dirty:
                self.stats.writebacks += 1
            victim = (self.line_addr(set_index, victim_tag), victim_dirty)
            del where[victim_tag]
        tags[way] = tag
        self._dirty[set_index][way] = dirty
        where[tag] = way
        self._touch(set_index, way)
        return victim

    def flush(self, phys_addr: int) -> bool:
        """clflush: drop the line if present; returns whether it was."""
        set_index, tag = self.locate(phys_addr)
        way = self._where[set_index].pop(tag, None)
        self.stats.flushes += 1
        if way is None:
            return False
        self._tags[set_index][way] = None
        self._dirty[set_index][way] = False
        return True


def _merge_stats(parts: List[CacheStats]) -> CacheStats:
    """Field-wise sum of per-core cache statistics."""
    merged = CacheStats()
    for part in parts:
        merged.hits += part.hits
        merged.misses += part.misses
        merged.evictions += part.evictions
        merged.writebacks += part.writebacks
        merged.flushes += part.flushes
    return merged


def _level_stats(stats: CacheStats) -> Dict[str, Any]:
    """JSON-able snapshot of one level's counters."""
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": stats.hit_rate,
        "evictions": stats.evictions,
        "writebacks": stats.writebacks,
    }


@CACHES.register("l1l2")
class MemoryHierarchy:
    """Per-core L1s + shared banked L2 + MSHRs, event-driven.

    Implements the one-method ``enqueue`` memory-target contract, so a
    :class:`~repro.cpu.core.TraceCore` issues through it unchanged.
    Requests are routed to the issuing core's private L1 by
    ``core_id``; L1 misses probe the shared L2 after ``l1_latency_ns``,
    serialized per L2 bank (``set index % l2_banks``); L2 misses
    allocate an MSHR (merging same-line misses) and fetch the line from
    DRAM through the optional interconnect.  Dirty victims write back
    level-by-level and ultimately become DRAM write requests.
    """

    def __init__(
        self,
        engine: "Engine",
        memory: Any,
        num_cores: int,
        l1_size: int = 32 * 1024,
        l1_ways: int = 8,
        l2_size: int = 1024 * 1024,
        l2_ways: int = 16,
        l2_banks: int = 4,
        line_bytes: int = 64,
        l1_latency_ns: float = 1.25,
        l2_latency_ns: float = 10.0,
        mshrs: int = 16,
        replacement: str = "lru",
        interconnect: Optional[Interconnect] = None,
        recorder: Optional["TraceRecorder"] = None,
    ) -> None:
        if num_cores < 1:
            raise ValueError("hierarchy needs at least one core")
        if l2_banks < 1:
            raise ValueError("l2_banks must be positive")
        if mshrs < 1:
            raise ValueError("mshrs must be positive")
        self.engine = engine
        self.memory = memory
        self.num_cores = num_cores
        self.line_bytes = line_bytes
        self.l1_latency_ns = l1_latency_ns
        self.l2_latency_ns = l2_latency_ns
        self.l2_banks = l2_banks
        self.mshrs = mshrs
        self.interconnect = interconnect
        self.recorder = recorder
        self.l1s: List[SetAssocCache] = [
            SetAssocCache(
                f"L1-{core}", l1_size, l1_ways, line_bytes, replacement
            )
            for core in range(num_cores)
        ]
        self.l2 = SetAssocCache("L2", l2_size, l2_ways, line_bytes, replacement)
        self._bank_free: List[float] = [0.0] * l2_banks
        #: line address -> requests merged into the in-flight fill
        self._mshr: Dict[int, List[MemRequest]] = {}
        #: misses that found every MSHR busy, FIFO
        self._stalled: Deque[MemRequest] = deque()
        self.mshr_merges = 0
        self.mshr_stalls = 0
        self.dram_reads = 0
        self.dram_writebacks = 0

    # ------------------------------------------------------------------
    # Memory-target contract
    # ------------------------------------------------------------------
    def enqueue(self, request: MemRequest) -> None:
        """Accept one core request; completion fires ``on_complete``."""
        engine = self.engine
        now = engine.now
        core = request.core_id % self.num_cores
        if self.l1s[core].access(request.phys_addr, request.is_write):
            engine.schedule(
                now + self.l1_latency_ns,
                partial(self._complete, request),
                0,
                "cache-l1",
            )
            return
        # L2 probe: after the L1 lookup, serialized on the set's bank.
        set_index, _ = self.l2.locate(request.phys_addr)
        bank = set_index % self.l2_banks
        start = now + self.l1_latency_ns
        if self._bank_free[bank] > start:
            start = self._bank_free[bank]
        self._bank_free[bank] = start + self.l2_latency_ns
        done = start + self.l2_latency_ns
        if self.l2.access(request.phys_addr, is_write=False):
            engine.schedule(
                done, partial(self._l2_hit, request, core), 0, "cache-l2"
            )
        else:
            if self.recorder is not None:
                from repro.obs.trace import CACHE_MISS

                self.recorder.record(CACHE_MISS, now, detail={"core": core})
            engine.schedule(
                done, partial(self._miss, request), 0, "cache-miss"
            )

    # ------------------------------------------------------------------
    # Hit/miss continuations
    # ------------------------------------------------------------------
    def _complete(self, request: MemRequest) -> None:
        request.complete(self.engine.now)

    def _l2_hit(self, request: MemRequest, core: int) -> None:
        """L2 returned the line: fill the core's L1, complete."""
        self._install_l1(core, request.phys_addr, dirty=request.is_write)
        request.complete(self.engine.now)

    def _miss(self, request: MemRequest) -> None:
        """L2 confirmed a miss: merge, stall, or allocate an MSHR."""
        line = request.phys_addr // self.line_bytes
        waiters = self._mshr.get(line)
        if waiters is not None:
            waiters.append(request)
            self.mshr_merges += 1
            return
        if len(self._mshr) >= self.mshrs:
            self.mshr_stalls += 1
            self._stalled.append(request)
            return
        self._mshr[line] = [request]
        self._issue_read(line, request.core_id)

    # ------------------------------------------------------------------
    # DRAM traffic
    # ------------------------------------------------------------------
    def _deliver(self, dram_request: MemRequest) -> None:
        """Hand one request to the memory system at its grant time."""
        engine = self.engine
        if self.interconnect is not None:
            departure = self.interconnect.grant(
                dram_request.phys_addr, engine.now
            )
            engine.schedule(
                departure,
                partial(self.memory.enqueue, dram_request),
                0,
                "icn",
            )
        else:
            self.memory.enqueue(dram_request)

    def _issue_read(self, line: int, core_id: int) -> None:
        self.dram_reads += 1
        self._deliver(
            MemRequest(
                phys_addr=line * self.line_bytes,
                is_write=False,
                core_id=core_id,
                on_complete=partial(self._fill, line),
            )
        )

    def _write_dram(self, phys_addr: int) -> None:
        """A dirty L2 victim becomes a DRAM write (fire and forget)."""
        self.dram_writebacks += 1
        if self.recorder is not None:
            from repro.obs.trace import CACHE_WRITEBACK

            self.recorder.record(CACHE_WRITEBACK, self.engine.now)
        self._deliver(MemRequest(phys_addr=phys_addr, is_write=True))

    # ------------------------------------------------------------------
    # Install paths
    # ------------------------------------------------------------------
    def _install_l1(self, core: int, phys_addr: int, dirty: bool) -> None:
        """Fill a core's L1; dirty victims write back into the L2."""
        victim = self.l1s[core].install(phys_addr, dirty)
        if victim is not None and victim[1]:
            self._writeback_to_l2(victim[0])

    def _writeback_to_l2(self, phys_addr: int) -> None:
        """Install a dirty L1 victim into the L2 (write-back)."""
        victim = self.l2.install(phys_addr, dirty=True)
        if victim is not None and victim[1]:
            self._write_dram(victim[0])

    def _fill(self, line: int, dram_request: MemRequest) -> None:
        """DRAM returned the line: install everywhere, release waiters."""
        now = self.engine.now
        addr = line * self.line_bytes
        victim = self.l2.install(addr, dirty=False)
        if victim is not None and victim[1]:
            self._write_dram(victim[0])
        for waiter in self._mshr.pop(line):
            core = waiter.core_id % self.num_cores
            self._install_l1(core, waiter.phys_addr, dirty=waiter.is_write)
            waiter.complete(now)
        # One MSHR freed -> release exactly one stalled miss.  The full
        # re-lookup lets it hit if the line it wanted just arrived.
        if self._stalled and len(self._mshr) < self.mshrs:
            self.enqueue(self._stalled.popleft())

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats_dict(self, elapsed_ns: float = 0.0) -> Dict[str, Any]:
        """JSON-able counter snapshot for results and reports."""
        return {
            "l1": _level_stats(_merge_stats([l1.stats for l1 in self.l1s])),
            "l2": _level_stats(self.l2.stats),
            "mshr_merges": self.mshr_merges,
            "mshr_stalls": self.mshr_stalls,
            "dram_reads": self.dram_reads,
            "dram_writebacks": self.dram_writebacks,
        }
