"""The event-driven DDR5 memory controller.

This module ties the whole device model together: it decodes physical
addresses with the Minimalist Open Page mapping, schedules requests
FR-FCFS with a row-hit cap (the paper's controller, Table 3), walks
the ACT/PRE/RD/WR timing state machine per bank with an open-page
policy, issues a REFab every tREFI, and — central to the paper —
issues RFM commands, either reactively (Alert Back-Off),
proactively on activation counts (ACB-RFM), or on a timer (TPRAC's
TB-RFM), as decided by the attached mitigation policy.

Fidelity notes
--------------
* Requests are modelled at command granularity: a request's service is
  decomposed into (optional PRE) + (optional ACT) + CAS + burst, with
  tRC/tRP/tRCD/tCL/tBL/tCCD/tWR respected per bank and a shared data
  bus serialized with tBL.
* REFab and RFMab close all rows and block the whole channel (tRFC /
  tRFMab) — this channel-wide stall is the paper's timing channel.
* An RFM does not abort requests already in flight; it delays requests
  scheduled after it, which is exactly the latency spike an attacker
  observes on its own accesses.

Hot-path notes
--------------
The wake loop below is, with the event kernel, where every perf sweep
spends its time, so it serves only the banks that are due: a min-heap
of ``(ready_time, bank_id)`` (the *agenda*) holds one entry per busy
bank, so a wake pops the banks whose head request could start now and
takes its next target from the heap top.  A bank's ready time
(:meth:`MemoryController._bank_ready_time`, the one formula) depends
only on its own pipeline state, its queue head and the channel-wide
blocking window, so an entry is pushed when a bank goes idle->busy and
again after each serve that leaves it busy; an enqueue to a busy bank
leaves its head, and so its entry, unchanged.  Channel-wide moves
(REFab, RFMab bursts, RFMpb's ``block_bank``) only mark the agenda
stale, and the next wake rebuilds it from the busy banks.  Timing
parameters are cached as plain floats at construction, the device-side
"must mitigate" flag is only re-read after a serve (the only action
that can change it), and a completed request only bumps the aggregate
counters of :class:`~repro.controller.stats.ControllerStats`.  All fast
paths are bit-for-bit equivalent to a scan of every busy bank in
ascending id.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import DEFAULT_SYSTEM, SystemConfig
from repro.controller.request import MemRequest
from repro.controller.scheduler import BankQueueScheduler
from repro.controller.stats import NO_ROWS, ControllerStats
from repro.core.engine import Engine, EventHandle
from repro.dram.address import DramAddress, MopMapping
from repro.dram.commands import Command, CommandKind, RfmProvenance
from repro.dram.config import DramConfig
from repro.dram.rank import Channel
from repro.dram.refresh import RefreshScheduler
from repro.dram.sanitizer import ProtocolChecker
from repro.obs import trace as obs_trace
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.trace import TraceRecorder
from repro.prac.abo import AboProtocol

_INF = float("inf")

#: Entries the decode memo may hold before ``enqueue`` clears it (about
#: 0.8 MB).  An attack harness touches at most 64 distinct addresses
#: per controller, so its hits never miss for want of room; a perf
#: trace is a DRAM miss stream whose addresses are nearly all unique,
#: so an unbounded memo would only grow with the run.
_DECODE_CACHE_LIMIT = 4096


class MemoryController:
    """The memory controller of the system's one DDR5 channel.

    Parameters
    ----------
    engine:
        The shared simulation engine.
    config:
        Device configuration (organization, timing, PRAC parameters).
    policy:
        A mitigation policy (see :mod:`repro.mitigations`); ``None``
        models PRAC-enabled DRAM that never mitigates (the paper's
        normalization baseline when combined with ``enable_abo=False``).
    system:
        The declarative assembly spec (:class:`repro.config.SystemConfig`);
        this controller reads its observer switches (``sanitize``,
        ``trace``, ``metrics``) and attaches what they name.
    enable_abo:
        Whether the device asserts Alert at N_BO.
    enable_refresh:
        Whether periodic REFab is simulated (fig8's walkthrough and the
        executed Feinting attack run without it).
    tref_per_trefi:
        Targeted-Refresh rate for the TPRAC co-design (Section 4.3).
    """

    def __init__(
        self,
        engine: Engine,
        config: DramConfig,
        policy: Optional[object] = None,
        system: Optional[SystemConfig] = None,
        enable_abo: bool = True,
        enable_refresh: bool = True,
        tref_per_trefi: float = 0.0,
    ) -> None:
        system = (system if system is not None else DEFAULT_SYSTEM).validate()
        self.engine = engine
        self.config = config.validate()
        self.channel = Channel(config)
        self.mapping = MopMapping(config.organization)
        self.enable_abo = enable_abo
        self.stats = ControllerStats()
        self.scheduler = BankQueueScheduler(config.organization.banks_per_channel)
        # Per-bank pipeline state beyond what Bank itself tracks.
        n = config.organization.banks_per_channel
        self._bank_cmd_ready: List[float] = [0.0] * n   # next CAS/ACT slot
        self._last_act_time: List[float] = [-1e18] * n
        self._last_cas_time: List[float] = [-1e18] * n  # for tRTP (RD->PRE)
        self._wr_recovery_until: List[float] = [0.0] * n

        # Hot-path caches: timing parameters as plain floats, and direct
        # references past the Channel/Scheduler accessors.  Values are
        # identical to the config attributes — results do not change.
        timing = config.timing
        self._tRP = timing.tRP
        self._tRAS = timing.tRAS
        self._tRTP = timing.tRTP
        self._tRCD = timing.tRCD
        self._tCL = timing.tCL
        self._tBL = timing.tBL
        self._tCCD = timing.tCCD
        self._tWR = timing.tWR
        self._tRFMab = timing.tRFMab
        self._banks = self.channel.banks
        self._queues = self.scheduler.queues
        # The agenda: a min-heap of (ready time, bank id), one entry per
        # busy bank (see the module's hot-path notes).  Channel-wide
        # moves set the stale flag; the next wake rebuilds the heap.
        self._agenda: List[Tuple[float, int]] = []
        self._agenda_stale = False
        #: reused for the bank ids due at a wake when there are several
        self._due: List[int] = []
        #: phys_addr -> (DramAddress, flat bank id); decode is pure, so
        #: the memo is cleared whenever it reaches _DECODE_CACHE_LIMIT.
        self._decode_cache: Dict[int, Tuple[DramAddress, int]] = {}

        # ABO protocol --------------------------------------------------
        self.abo = AboProtocol(config, self.channel, clock=lambda: engine.now)
        self.abo.on_alert.append(self._on_alert)
        self._abo_deadline: Optional[float] = None

        # Refresh & tREFW -----------------------------------------------
        self.refresh = RefreshScheduler(
            engine, self.channel, config, tref_per_trefi=tref_per_trefi
        )
        self.refresh.on_refw.append(self._on_refw)
        self.refresh.on_tref.append(self._on_tref)
        # REFab blocks the whole channel: every ready time moves.
        self.refresh.on_refresh.append(self._invalidate_ready_cache)
        if enable_refresh:
            self.refresh.start()

        # Mitigation policy ---------------------------------------------
        self.policy = policy
        #: provenances of the proactive RFMs requested and not yet issued
        self._pending_rfms: List[RfmProvenance] = []
        if policy is not None:
            policy.attach(self)

        #: the pending wake's handle and time (infinity when none is
        #: pending): the time is read on every enqueue, so it sits in a
        #: float beside the handle rather than inside it
        self._wake_event: Optional[EventHandle] = None
        self._wake_time = _INF

        #: optional online protocol sanitizer (SystemConfig(sanitize=True))
        self.sanitizer: Optional[ProtocolChecker] = (
            ProtocolChecker(self.config) if system.sanitize else None
        )
        #: optional structured trace recorder (SystemConfig(trace=True))
        recorder = TraceRecorder(self.config) if system.trace else None
        self.recorder: Optional[TraceRecorder] = recorder
        # The serve loop's single trace guard: one bound-method load and
        # one None check per command whether zero, one or more consumers
        # are attached — the telemetry-off fast path is unchanged.
        self._trace = (
            self._log
            if self.sanitizer is not None or recorder is not None
            else None
        )
        if self._trace is not None:
            self.refresh.on_refresh.append(
                lambda start: self._log(CommandKind.REF, -1, -1, start)
            )
        if self.sanitizer is not None and enable_abo:
            # With ABO disabled alerts are reset on assertion, so the
            # checker must not arm its Alert deadline either.
            self.abo.on_alert.append(self.sanitizer.on_alert)
        if recorder is not None:
            self._register_trace_hooks(recorder)

        #: optional periodic time-series sampler (SystemConfig(metrics=True)).
        #: Armed last, after the refresh and policy timers, so its
        #: events take the sequence numbers after theirs; with metrics
        #: off the event schedule is untouched.
        self.sampler: Optional[TimeSeriesSampler] = None
        if system.metrics:
            self.sampler = TimeSeriesSampler(self)
            self.sampler.start()

    def _log(
        self,
        kind: CommandKind,
        bank_id: int,
        row: int,
        time: float,
        provenance: Optional[RfmProvenance] = None,
    ) -> None:
        command = Command(
            kind=kind, bank_id=bank_id, row=row, issue_time=time,
            provenance=provenance,
        )
        if self.sanitizer is not None:
            self.sanitizer.observe_command(command)
        if self.recorder is not None:
            self.recorder.observe_command(command)

    def _register_trace_hooks(self, recorder: TraceRecorder) -> None:
        """Record lifecycle events as typed trace records.

        Served commands flow through :meth:`_log`; everything else —
        ABO alert assertion/clearing, tREFW counter resets, TREF slots
        and per-ACT PRAC counter values — is hooked here.  Only called
        when a recorder is attached, so the trace-off path registers no
        callbacks.
        """
        self.abo.on_alert.append(
            lambda time, bank_id, row: recorder.record(
                obs_trace.ALERT, time, bank=bank_id, row=row
            )
        )
        self.abo.on_mitigated.append(
            lambda time: recorder.record(obs_trace.ALERT_DONE, time)
        )
        self.refresh.on_refw.append(
            lambda time: recorder.record(obs_trace.PRAC_RESET, time)
        )
        self.refresh.on_tref.append(
            lambda time: recorder.record(obs_trace.TREF_SLOT, time)
        )
        engine = self.engine
        for bank in self.channel:
            bank.on_activate(
                lambda b, row, count: recorder.record(
                    obs_trace.PRAC_COUNTER,
                    engine.now,
                    bank=b.bank_id,
                    row=row,
                    detail={"count": count},
                )
            )

    # ==================================================================
    # Public API
    # ==================================================================
    def enqueue(self, request: MemRequest) -> None:
        """Accept a request; it will complete via ``request.complete``."""
        phys = request.phys_addr
        memo = self._decode_cache
        entry = memo.get(phys)
        if entry is None:
            if len(memo) >= _DECODE_CACHE_LIMIT:
                memo.clear()
            addr = self.mapping.decode(phys)
            entry = (addr, addr.flat_bank(self.config.organization))
            memo[phys] = entry
        addr, bank_id = entry
        request.addr = addr
        now = self.engine.now
        request.arrive_time = now
        queue = self._queues[bank_id]
        self.scheduler.enqueue(request, bank_id)
        if len(queue) == 1 and not self._agenda_stale:
            # Idle -> busy: the bank joins the agenda.  A busy bank's
            # head, and so its ready time, is unchanged by an enqueue.
            heappush(self._agenda, (self._bank_ready_time(bank_id), bank_id))
        if self._wake_time > now:
            self._schedule_wake(now)

    def request_rfm(self, provenance: RfmProvenance) -> None:
        """Ask the controller to issue one RFMab command ASAP.

        Used by proactive policies (ACB thresholds, TPRAC's TB timer,
        the obfuscation defense's random injector).
        """
        self._pending_rfms.append(provenance)
        # Inline _schedule_wake(now), as enqueue gates it.
        engine = self.engine
        now = engine.now
        if self._wake_time > now:
            wake = self._wake_event
            if wake is not None:
                engine.cancel(wake)
            self._wake_time = now
            self._wake_event = engine.schedule(now, self._wake, 1, "mc-wake")

    # ==================================================================
    # ABO protocol hooks
    # ==================================================================
    def _on_alert(self, time: float, bank_id: int, row: int) -> None:
        if not self.enable_abo:
            # Device-side alert wiring disabled: clear immediately.
            self.abo.reset()
            return
        self._abo_deadline = self.engine.now + self.config.timing.tABOACT
        self._schedule_wake(self.engine.now)

    def _on_refw(self, time: float) -> None:
        """tREFW boundary: optional PRAC counter reset (Figure 14)."""
        if self.config.prac.reset_on_refresh:
            self.channel.reset_all_counters()
            if self.policy is not None:
                self.policy.on_counter_reset(self, time)

    def _on_tref(self, time: float) -> None:
        """A Targeted-Refresh slot fired inside this refresh."""
        if self.policy is not None:
            self.policy.on_tref(self, time)

    # ==================================================================
    # Scheduling loop
    # ==================================================================
    def _schedule_wake(self, time: float) -> None:
        engine = self.engine
        now = engine.now
        if time < now:
            time = now
        if self._wake_time <= time:
            return  # the pending wake comes no later
        wake = self._wake_event
        if wake is not None:
            engine.cancel(wake)
        self._wake_time = time
        self._wake_event = engine.schedule(time, self._wake, 1, "mc-wake")

    def _wake(self) -> None:
        self._wake_event = None
        self._wake_time = _INF
        engine = self.engine
        now = engine.now
        channel = self.channel

        # Inside a REF/RFMab window: wake again when it ends.  The wake
        # slot was cleared above, so this branch and the RFM branch
        # below fill it directly instead of through _schedule_wake.
        blocked = channel.blocked_until
        if now < blocked:
            self._wake_time = blocked
            self._wake_event = engine.schedule(blocked, self._wake, 1, "mc-wake")
            return

        abo = self.abo
        enable_abo = self.enable_abo
        scheduler = self.scheduler

        # 1. Mandatory ABO mitigation --------------------------------
        if enable_abo and abo.alert_pending:
            deadline = self._abo_deadline
            due = (
                abo.must_mitigate_now
                or (deadline is not None and now >= deadline)
                or scheduler.pending() == 0
            )
            if due:
                self._issue_rfm_burst(abo.rfm_burst_size(), RfmProvenance.ABO)
                abo.mitigation_done()
                self._abo_deadline = None
                self._schedule_wake(channel.blocked_until)
                return

        # 2. Proactive RFMs requested by the policy -------------------
        if self._pending_rfms:
            self._issue_rfm_burst(1, self._pending_rfms.pop(0))
            # Filling the slot directly would orphan a wake that a burst
            # hook (the policy's mitigate_on_rfm) had scheduled.
            assert self._wake_event is None, "an RFM burst scheduled a wake"
            blocked = channel.blocked_until
            self._wake_time = blocked
            self._wake_event = engine.schedule(blocked, self._wake, 1, "mc-wake")
            return

        # 3. Serve the due banks --------------------------------------
        agenda = self._agenda
        if self._agenda_stale:
            self._agenda_stale = False
            busy = scheduler.banks_with_work()
            if busy:
                ready_time = self._bank_ready_time
                agenda[:] = [(ready_time(b), b) for b in busy]
                heapify(agenda)
            else:
                agenda.clear()
        served_any = False
        if agenda and agenda[0][0] <= now:
            served_any = True
            first = heappop(agenda)[1]
            due: Sequence[int]
            if agenda and agenda[0][0] <= now:
                # Several banks due: serve them in ascending id, the
                # order of a scan over the busy banks.
                several = self._due
                several.clear()
                several.append(first)
                while agenda and agenda[0][0] <= now:
                    several.append(heappop(agenda)[1])
                several.sort()
                due = several
            else:
                due = (first,)
            banks = self._banks
            queues = self._queues
            for bank_id in due:
                request = scheduler.pick(bank_id, banks[bank_id])
                assert request is not None  # the bank has work
                self._serve(request, bank_id)
                if queues[bank_id]:
                    heappush(agenda, (self._bank_ready_time(bank_id), bank_id))
                # The wake gets here with no grace-exhausted Alert (step
                # 1 mitigates first) and only an ACT issued by _serve
                # can exhaust it.  Once it does, stop issuing: the next
                # wake's Alert burst marks the agenda stale, and the
                # rebuild brings back the due banks not served here.
                if enable_abo and abo.must_mitigate_now:
                    break

        target: Optional[float]
        if served_any and scheduler._total_pending:
            # Re-examine immediately: serving may have changed state.
            target = now
        else:
            target = self._abo_deadline
            if agenda and (target is None or agenda[0][0] < target):
                target = agenda[0][0]
            if target is None:
                return
            if target < now:
                target = now
        # Inline _schedule_wake (the wake handle is usually None here:
        # it was cleared on entry and only hooks re-arm it mid-wake).
        if self._wake_time <= target:
            return
        wake = self._wake_event
        if wake is not None:
            engine.cancel(wake)
        self._wake_time = target
        self._wake_event = engine.schedule(target, self._wake, 1, "mc-wake")

    # ------------------------------------------------------------------
    def _invalidate_ready_cache(self, _time: float = 0.0) -> None:
        """Mark the agenda stale (channel-wide state moved).

        O(1): the next wake rebuilds the agenda from the busy banks.
        Registered on the refresh hook (``_issue_rfm_burst`` sets the
        flag itself); any out-of-band mutation of bank timing state must
        call it too.
        """
        self._agenda_stale = True

    # ------------------------------------------------------------------
    def _earliest_precharge(self, bank_id: int, arrival: float) -> float:
        """When a PRE for a pending conflict could have been issued.

        Models an eager controller: once a conflicting request is in
        the queue, the precharge goes out as soon as tRAS (ACT->PRE),
        tRTP (RD->PRE) and write recovery allow — not when the request
        is finally picked.
        """
        pre_at = arrival
        t = self._last_act_time[bank_id] + self._tRAS
        if t > pre_at:
            pre_at = t
        t = self._last_cas_time[bank_id] + self._tRTP
        if t > pre_at:
            pre_at = t
        t = self._wr_recovery_until[bank_id]
        if t > pre_at:
            pre_at = t
        return pre_at

    def _bank_ready_time(self, bank_id: int) -> float:
        """Earliest time the head request of a bank with work could start.

        The one ready-time formula: the agenda's keys come from here.
        """
        bank = self._banks[bank_id]
        t = self._bank_cmd_ready[bank_id]
        blocked = self.channel.blocked_until
        if blocked > t:
            t = blocked
        head = self._queues[bank_id][0]
        open_row = bank.open_row
        if open_row is not None and head.addr.row == open_row:
            return t
        if open_row is None:
            act_at = bank.ready_at
            if bank.precharge_done_at > act_at:
                act_at = bank.precharge_done_at
        else:
            act_at = self._earliest_precharge(bank_id, head.arrive_time) + self._tRP
            if bank.ready_at > act_at:
                act_at = bank.ready_at
        return act_at if act_at > t else t

    def _serve(self, request: MemRequest, bank_id: int) -> None:
        """Walk the command sequence for one request; schedule completion."""
        bank = self._banks[bank_id]
        engine = self.engine
        channel = self.channel
        now = engine.now
        row = request.addr.row
        t = now
        v = self._bank_cmd_ready[bank_id]
        if v > t:
            t = v
        v = channel.blocked_until
        if v > t:
            t = v

        trace = self._trace
        open_row = bank.open_row
        if open_row == row:
            was_hit = True
            cas_time = t
        else:
            was_hit = False
            if open_row is not None:
                # Row conflict: eager precharge (see _earliest_precharge).
                pre_time = self._earliest_precharge(bank_id, request.arrive_time)
                bank.precharge(pre_time)
                if trace is not None:
                    trace(CommandKind.PRE, bank_id, -1, pre_time)
                self.stats.row_conflicts += 1
            else:
                self.stats.row_misses += 1
            act_time = t
            if bank.ready_at > act_time:
                act_time = bank.ready_at
            if bank.precharge_done_at > act_time:
                act_time = bank.precharge_done_at
            bank.activate(row, act_time)
            if trace is not None:
                trace(CommandKind.ACT, bank_id, row, act_time)
            self._last_act_time[bank_id] = act_time
            cas_time = act_time + self._tRCD
        self._last_cas_time[bank_id] = cas_time
        if trace is not None:
            trace(
                CommandKind.WR if request.is_write else CommandKind.RD,
                bank_id,
                row,
                cas_time,
            )

        data_start = cas_time + self._tCL  # same CAS latency for RD/WR in model
        if channel.bus_free_at > data_start:
            data_start = channel.bus_free_at
        data_end = data_start + self._tBL
        channel.bus_free_at = data_end
        bank_stats = bank.stats
        if request.is_write:
            bank_stats.writes += 1
            self._wr_recovery_until[bank_id] = data_end + self._tWR
        else:
            bank_stats.reads += 1
        self._bank_cmd_ready[bank_id] = cas_time + self._tCCD

        engine.schedule(
            data_end, partial(self._finish, request, was_hit), 2, "mc-done"
        )

    def _finish(self, request: MemRequest, was_hit: bool) -> None:
        now = self.engine.now
        stats = self.stats
        stats.record_completion(now - request.arrive_time, was_hit, request.is_write)
        if request.is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        request.complete(now)

    # ------------------------------------------------------------------
    def _issue_rfm_burst(self, count: int, provenance: RfmProvenance) -> None:
        """Issue ``count`` back-to-back RFMab commands, mitigating rows."""
        channel = self.channel
        policy = self.policy
        stats = self.stats
        tRFMab = self._tRFMab
        # Like refresh, an RFM waits for in-flight transfers to drain.
        t = self.engine.now
        v = channel.blocked_until
        if v > t:
            t = v
        v = channel.bus_free_at
        if v > t:
            t = v
        for _ in range(count):
            start = t
            v = channel.blocked_until
            if v > start:
                start = v
            end = channel.block(start, tRFMab)
            if self._trace is not None:
                self._log(CommandKind.RFM_AB, -1, -1, start, provenance)
            mitigated: Mapping[int, int] = (
                NO_ROWS if policy is None
                else policy.mitigate_on_rfm(self, start, provenance)
            )
            stats.record_rfm(start, provenance, -1, mitigated)
            channel.rfm_count += 1
            t = end
        # Only banks activated since the previous burst can have a
        # nonzero count.
        activated = channel.activated_banks
        if activated:
            banks = self._banks
            for bank_id in sorted(activated):
                banks[bank_id].activations_since_rfm = 0
            activated.clear()
        # The burst moved blocked_until and closed every open row.
        self._agenda_stale = True
