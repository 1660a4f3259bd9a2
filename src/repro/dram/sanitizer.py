"""Online DRAM timing-protocol sanitizer.

This module is the repository's one DRAM timing checker, and it
validates commands **as the controller issues them**.  An opt-in
:class:`ProtocolChecker` (enabled with ``SystemConfig(sanitize=True)``)
observes every traced command from
:meth:`repro.controller.controller.MemoryController._serve` and raises
a structured :class:`ProtocolViolation` — with the offending command
and its recent history — the instant a JEDEC-style constraint breaks,
so the failing stack trace points at the code that issued the bad
command rather than at a post-mortem diff.  Tests that assert a
controller's command stream is timing-clean run it sanitized; tests of
the rules themselves feed synthetic streams to a bare checker.

Checked invariants:

* per-bank command-time monotonicity (``ORDER``);
* ACT: tRC / tRP / no double-open (``OPEN``) / channel- and bank-level
  blocking windows (``BLOCKED``) / the per-rank four-activate window
  (``tFAW``, ``strict=True`` only: the timing model intentionally does
  not arbitrate per-rank ACT bandwidth, see :class:`ProtocolChecker`);
* PRE: tRAS / tRTP / tWR write recovery;
* RD/WR: row must be open and match (``CLOSED`` / ``ROW``), tRCD, tCCD;
* REF / RFMab: must wait for the channel-blocking window (``BLOCKED``)
  and for in-flight data to drain (``BUS``);
* ABO ordering: at most ``abo_act`` grace activations between Alert and
  the RFM burst (``ABO-ACT``), and the burst's first RFM must start by
  ``alert + tABOACT`` unless blocking/bus drain legitimately delays it
  (``ABO-WINDOW``).

The checker is deliberately *independent* state: it rebuilds bus
occupancy, blocking windows and the set of open banks from the command
stream alone (fed in issue order per bank, which the controller
guarantees), so a controller bug cannot corrupt the reference the
checker compares against.  A REF/RFMab costs in proportion to the banks
the stream left open: it closes those, and raises one channel-wide
``ORDER`` floor that every bank's monotonicity check folds in, instead
of stamping all banks.  The floor stays at the latest REF/RFMab start,
so in collect mode (``raise_on_violation=False``) every later command
stamped before that start reports ``ORDER``, not only the first one on
its bank.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Set, Tuple

from repro.dram.commands import Command, CommandKind, RfmProvenance
from repro.dram.config import DramConfig

_EPS = 1e-9
_NEG_INF = float("-inf")

#: JEDEC four-activate window: at most this many ACTs per rank per tFAW.
FAW_ACTS = 4


class ProtocolViolation(Exception):
    """A DRAM protocol rule was broken by an issued command.

    Attributes
    ----------
    constraint:
        Short tag naming the broken rule (``"tRC"``, ``"tFAW"``,
        ``"ABO-WINDOW"``, ...).
    command:
        The offending :class:`~repro.dram.commands.Command`.
    detail:
        Human-readable account of the violated inequality.
    history:
        The most recent commands observed before (and including) the
        offending one, oldest first — enough context to replay the
        failure by hand.
    """

    def __init__(
        self,
        constraint: str,
        command: Command,
        detail: str,
        history: Tuple[Command, ...] = (),
    ) -> None:
        super().__init__(f"[{constraint}] {command!r}: {detail}")
        self.constraint = constraint
        self.command = command
        self.detail = detail
        self.history = history


class _BankState:
    """Per-bank reference state rebuilt from the observed stream."""

    __slots__ = (
        "last_time",
        "last_act",
        "last_pre_done",
        "last_cas",
        "wr_recovery_until",
        "open_row",
        "blocked_until",
    )

    def __init__(self) -> None:
        self.last_time = _NEG_INF      # most recent command on this bank
        self.last_act = _NEG_INF       # ACT issue time
        self.last_pre_done = _NEG_INF  # when the last precharge completed
        self.last_cas = _NEG_INF       # RD/WR issue time
        self.wr_recovery_until = _NEG_INF
        self.open_row: Optional[int] = None
        self.blocked_until = _NEG_INF  # per-bank RFMpb window


class ProtocolChecker:
    """Online validator for the controller's issued command stream.

    Feed commands via :meth:`observe` in the controller's issue order
    (per bank the stream is time-monotonic; channel-wide commands are
    fed when issued, after every already-stamped command).  The default
    ``raise_on_violation=True`` raises :class:`ProtocolViolation` at
    the first broken rule; tests that want to scan a whole stream pass
    ``False`` and read :attr:`violations`.  In that collect mode each
    command is still checked against the latest REF/RFMab start, so one
    late command does not lower the bar for the ones after it.
    """

    def __init__(
        self,
        config: DramConfig,
        raise_on_violation: bool = True,
        history: int = 32,
        strict: bool = False,
    ) -> None:
        self.config = config.validate()
        self.raise_on_violation = raise_on_violation
        #: ``strict=True`` additionally enforces JEDEC rules the timing
        #: model deliberately relaxes — today the per-rank four-activate
        #: window (tFAW).  The controller serves independent banks
        #: without arbitrating a shared command bus, so concurrent
        #: requests can legally (in-model) activate more than four banks
        #: of one rank inside tFAW; the in-controller hook therefore
        #: runs non-strict, and strict mode is for synthetic streams.
        self.strict = strict
        self.violations: List[ProtocolViolation] = []
        org = config.organization
        timing = config.timing
        self._tRC = timing.tRC
        self._tRP = timing.tRP
        self._tRAS = timing.tRAS
        self._tRCD = timing.tRCD
        self._tRTP = timing.tRTP
        self._tCL = timing.tCL
        self._tBL = timing.tBL
        self._tCCD = timing.tCCD
        self._tWR = timing.tWR
        self._tFAW = timing.tFAW
        self._tRFC = timing.tRFC
        self._tRFMab = timing.tRFMab
        self._tRFMpb = timing.tRFMpb
        self._tABOACT = timing.tABOACT
        self._abo_act = config.prac.abo_act
        self._banks_per_rank = org.banks_per_rank
        self._banks = [_BankState() for _ in range(org.banks_per_channel)]
        #: ids of banks with an open row in the observed stream: ACT
        #: adds, PRE / RFMpb / REF / RFMab remove
        self._open: Set[int] = set()
        #: start of the latest REF/RFMab, an all-bank command: no bank's
        #: later command may be stamped before it (``ORDER``)
        self._order_floor = _NEG_INF
        # Per-rank ACT issue times inside the rolling four-activate
        # window; a fifth ACT within tFAW of the oldest is a violation.
        self._rank_acts: List[Deque[float]] = [
            deque(maxlen=FAW_ACTS) for _ in range(org.ranks)
        ]
        self._blocked_until = _NEG_INF  # channel-wide REF / RFMab window
        self._blocked_by = ""           # which command opened the window
        self._bus_free = _NEG_INF       # reference data-bus occupancy
        self._history: Deque[Command] = deque(maxlen=history)
        # ABO bookkeeping (armed by :meth:`on_alert`).
        self._alert_time: Optional[float] = None
        self._alert_deadline = 0.0
        self._acts_since_alert = 0
        self._skip_next_act = False

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_alert(self, time: float, bank_id: int, row: int) -> None:
        """Device asserted Alert; the triggering ACT is fed right after.

        Wired to ``AboProtocol.on_alert`` by the controller.  The hook
        fires from inside ``Bank.activate`` — i.e. *before* the
        triggering ACT reaches :meth:`observe` — so that ACT must not
        count against the post-Alert grace budget.
        """
        self._alert_time = time
        self._alert_deadline = time + self._tABOACT
        self._acts_since_alert = 0
        self._skip_next_act = True

    # ------------------------------------------------------------------
    # Command stream
    # ------------------------------------------------------------------
    def observe(
        self,
        kind: CommandKind,
        bank_id: int,
        row: int,
        time: float,
        provenance: Optional[RfmProvenance] = None,
    ) -> None:
        """Validate one issued command and fold it into the state."""
        self.observe_command(
            Command(
                kind=kind,
                bank_id=bank_id,
                row=row,
                issue_time=time,
                provenance=provenance,
            )
        )

    def observe_command(self, command: Command) -> None:
        """Validate an already-built :class:`Command` record."""
        self._history.append(command)
        kind = command.kind
        if kind is CommandKind.ACT:
            self._on_act(command)
        elif kind is CommandKind.PRE:
            self._on_pre(command)
        elif kind is CommandKind.RD or kind is CommandKind.WR:
            self._on_cas(command)
        elif kind is CommandKind.REF:
            self._on_channel_block(command, self._tRFC)
        elif kind is CommandKind.RFM_AB:
            self._on_channel_block(command, self._tRFMab)
        elif kind is CommandKind.RFM_PB:
            self._on_rfm_pb(command)
        else:  # pragma: no cover - CommandKind is closed
            raise ValueError(f"unknown command kind {kind!r}")

    @property
    def ok(self) -> bool:
        """True while no violation has been recorded."""
        return not self.violations

    def history(self) -> Tuple[Command, ...]:
        """The retained command window, oldest first."""
        return tuple(self._history)

    # ------------------------------------------------------------------
    def _fail(self, constraint: str, command: Command, detail: str) -> None:
        violation = ProtocolViolation(
            constraint, command, detail, history=self.history()
        )
        self.violations.append(violation)
        if self.raise_on_violation:
            raise violation

    def _check_order(self, state: _BankState, command: Command) -> None:
        last = state.last_time
        floor = self._order_floor
        if floor > last:
            last = floor
        if command.issue_time < last - _EPS:
            self._fail(
                "ORDER",
                command,
                f"bank stream went backwards: previous command at "
                f"{last:.1f}ns",
            )

    def _check_not_blocked(self, command: Command) -> None:
        if command.issue_time < self._blocked_until - _EPS:
            self._fail(
                "BLOCKED",
                command,
                f"issued inside a {self._blocked_by} window ending at "
                f"{self._blocked_until:.1f}ns",
            )

    # ------------------------------------------------------------------
    def _on_act(self, command: Command) -> None:
        t = command.issue_time
        state = self._banks[command.bank_id]
        self._check_order(state, command)
        self._check_not_blocked(command)
        if t < state.blocked_until - _EPS:
            self._fail(
                "BLOCKED",
                command,
                f"issued inside a per-bank RFMpb window ending at "
                f"{state.blocked_until:.1f}ns",
            )
        if state.open_row is not None:
            self._fail("OPEN", command, f"row {state.open_row} still open")
        if t < state.last_act + self._tRC - _EPS:
            self._fail(
                "tRC",
                command,
                f"only {t - state.last_act:.1f}ns after the previous ACT "
                f"(tRC = {self._tRC})",
            )
        if t < state.last_pre_done - _EPS:
            self._fail(
                "tRP",
                command,
                f"precharge completes at {state.last_pre_done:.1f}ns "
                f"(tRP = {self._tRP})",
            )
        acts = self._rank_acts[command.bank_id // self._banks_per_rank]
        if self.strict and len(acts) == FAW_ACTS and t < acts[0] + self._tFAW - _EPS:
            self._fail(
                "tFAW",
                command,
                f"{FAW_ACTS + 1} ACTs within {t - acts[0]:.1f}ns "
                f"(tFAW = {self._tFAW})",
            )
        acts.append(t)
        if self._alert_time is not None:
            if self._skip_next_act:
                self._skip_next_act = False  # the Alert-triggering ACT
            else:
                self._acts_since_alert += 1
                if self._acts_since_alert > self._abo_act:
                    self._fail(
                        "ABO-ACT",
                        command,
                        f"{self._acts_since_alert} ACTs since the Alert at "
                        f"{self._alert_time:.1f}ns (ABO_ACT = {self._abo_act})",
                    )
        state.last_time = t
        state.last_act = t
        state.open_row = command.row
        self._open.add(command.bank_id)

    def _on_pre(self, command: Command) -> None:
        t = command.issue_time
        state = self._banks[command.bank_id]
        self._check_order(state, command)
        if t < state.last_act + self._tRAS - _EPS:
            self._fail(
                "tRAS",
                command,
                f"only {t - state.last_act:.1f}ns after ACT "
                f"(tRAS = {self._tRAS})",
            )
        if t < state.last_cas + self._tRTP - _EPS:
            self._fail(
                "tRTP",
                command,
                f"only {t - state.last_cas:.1f}ns after CAS "
                f"(tRTP = {self._tRTP})",
            )
        if t < state.wr_recovery_until - _EPS:
            self._fail(
                "tWR",
                command,
                f"write recovery runs until {state.wr_recovery_until:.1f}ns "
                f"(tWR = {self._tWR})",
            )
        state.last_time = t
        state.last_pre_done = t + self._tRP
        state.open_row = None
        self._open.discard(command.bank_id)

    def _on_cas(self, command: Command) -> None:
        t = command.issue_time
        state = self._banks[command.bank_id]
        self._check_order(state, command)
        self._check_not_blocked(command)
        if state.open_row is None:
            self._fail("CLOSED", command, "no open row")
        elif command.row >= 0 and command.row != state.open_row:
            self._fail(
                "ROW", command, f"row {command.row} vs open {state.open_row}"
            )
        if t < state.last_act + self._tRCD - _EPS:
            self._fail(
                "tRCD",
                command,
                f"only {t - state.last_act:.1f}ns after ACT "
                f"(tRCD = {self._tRCD})",
            )
        if t < state.last_cas + self._tCCD - _EPS:
            self._fail(
                "tCCD",
                command,
                f"only {t - state.last_cas:.1f}ns after the previous CAS "
                f"(tCCD = {self._tCCD})",
            )
        state.last_time = t
        state.last_cas = t
        # Replicate the shared-bus serialization: the burst starts once
        # both the CAS latency and the bus allow, and occupies tBL.
        data_start = t + self._tCL
        if self._bus_free > data_start:
            data_start = self._bus_free
        data_end = data_start + self._tBL
        self._bus_free = data_end
        if command.kind is CommandKind.WR:
            state.wr_recovery_until = data_end + self._tWR

    def _on_channel_block(self, command: Command, duration: float) -> None:
        t = command.issue_time
        self._check_not_blocked(command)
        if t < self._bus_free - _EPS:
            self._fail(
                "BUS",
                command,
                f"in-flight data occupies the bus until "
                f"{self._bus_free:.1f}ns",
            )
        if (
            command.kind is CommandKind.RFM_AB
            and command.provenance is RfmProvenance.ABO
            and self._alert_time is not None
        ):
            # The burst's first RFM must start by alert + tABOACT unless
            # an already-open blocking window or bus drain delays it.
            allowed = self._alert_deadline
            if self._blocked_until > allowed:
                allowed = self._blocked_until
            if self._bus_free > allowed:
                allowed = self._bus_free
            if t > allowed + _EPS:
                self._fail(
                    "ABO-WINDOW",
                    command,
                    f"RFM at {t:.1f}ns for the Alert at "
                    f"{self._alert_time:.1f}ns missed the deadline "
                    f"{allowed:.1f}ns (tABOACT = {self._tABOACT})",
                )
            self._alert_time = None
            self._acts_since_alert = 0
            self._skip_next_act = False
        # REF / RFMab require all banks precharged: the device closes
        # every open row at the window start.  An all-bank command
        # orders every bank's stream, which the floor records once.
        if t > self._order_floor:
            self._order_floor = t
        opened = self._open
        if opened:
            banks = self._banks
            pre_done = t + self._tRP
            for bank_id in opened:
                state = banks[bank_id]
                state.open_row = None
                if pre_done > state.last_pre_done:
                    state.last_pre_done = pre_done
            opened.clear()
        end = t + duration
        if end > self._blocked_until:
            self._blocked_until = end
            self._blocked_by = command.kind.value
        self._bus_free = max(self._bus_free, end)

    def _on_rfm_pb(self, command: Command) -> None:
        t = command.issue_time
        state = self._banks[command.bank_id]
        # No ORDER check: the RFMpb timer may legitimately fire while a
        # just-served CAS/PRE is stamped later than "now" on this bank.
        self._check_not_blocked(command)
        if t < state.blocked_until - _EPS:
            self._fail(
                "BLOCKED",
                command,
                f"issued inside a per-bank RFMpb window ending at "
                f"{state.blocked_until:.1f}ns",
            )
        state.last_time = max(state.last_time, t)
        if state.open_row is not None:
            state.open_row = None
            state.last_pre_done = max(state.last_pre_done, t + self._tRP)
            self._open.discard(command.bank_id)
        state.blocked_until = t + self._tRFMpb
