"""Tests for the online DRAM protocol sanitizer, the one timing checker.

Three layers:

* synthetic known-bad command streams, each raising the expected
  :class:`ProtocolViolation` (ACT-during-REF, late ABO-RFM, and the
  per-rule constraint set);
* real controller traffic under ``SystemConfig(sanitize=True)`` across
  mitigation policies — zero violations;
* the fig10 perf path with and without the sanitizer — results must be
  byte-identical.
"""

import dataclasses
import json
import random

import pytest

from repro.attacks.probes import bank_address
from repro.config import SystemConfig
from repro.controller import controller as controller_mod
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.commands import Command, CommandKind, RfmProvenance
from repro.dram.config import ddr5_8000b, small_test_config
from repro.dram.sanitizer import ProtocolChecker, ProtocolViolation
from repro.experiments.common import DesignPoint, run_perf_matrix
from repro.mitigations.abo_only import AboOnlyPolicy
from repro.mitigations.base import NoMitigationPolicy
from repro.mitigations.rfmpb import PerBankRfmPolicy
from repro.mitigations.tprac import TpracPolicy


def observe(checker, kind, bank, row, time, provenance=None):
    """Feed ``checker`` the command these scalars describe."""
    checker.observe_command(
        Command(
            kind=kind, bank_id=bank, row=row, issue_time=time,
            provenance=provenance,
        )
    )


def _checker(**config_kw):
    return ProtocolChecker(small_test_config(**config_kw))


class TestInjectedViolations:
    """Seeded known-bad streams raise the expected violation."""

    def test_tfaw_is_not_checked(self):
        # The timing model intentionally does not arbitrate per-rank
        # ACT bandwidth (ddr5_8000b: 32 banks per rank), so five ACTs
        # of rank 0 inside one 10 ns tFAW window pass.
        checker = ProtocolChecker(ddr5_8000b())
        rng = random.Random(0)
        t = 0.0
        for bank in range(5):
            observe(checker, CommandKind.ACT, bank, 1, t)
            t += rng.uniform(0.5, 1.5)

    def test_act_during_refresh(self):
        checker = _checker()
        observe(checker, CommandKind.REF, -1, -1, 0.0)
        with pytest.raises(ProtocolViolation) as err:
            # tRFC = 410 ns: any ACT before that is inside the window.
            observe(checker, CommandKind.ACT, 0, 1, 200.0)
        assert err.value.constraint == "BLOCKED"
        assert "REF" in err.value.detail

    def test_late_abo_rfm(self):
        checker = _checker()
        checker.on_alert(0.0, 0, 5)
        observe(checker, CommandKind.ACT, 0, 5, 0.0)  # the alerting ACT
        with pytest.raises(ProtocolViolation) as err:
            # tABOACT = 180 ns and nothing blocks the channel: an RFM
            # at 500 ns missed the mitigation deadline.
            observe(
                checker, CommandKind.RFM_AB, -1, -1, 500.0,
                provenance=RfmProvenance.ABO,
            )
        assert err.value.constraint == "ABO-WINDOW"

    def test_too_many_grace_acts_after_alert(self):
        checker = ProtocolChecker(ddr5_8000b())
        checker.on_alert(0.0, 0, 5)
        t = 0.0
        with pytest.raises(ProtocolViolation) as err:
            for bank in range(6):  # trigger + abo_act(3) allowed, then fail
                observe(checker, CommandKind.ACT, bank, 5, t)
                t += 60.0
        assert err.value.constraint == "ABO-ACT"

    def test_act_during_rfmab(self):
        checker = _checker()
        observe(checker, CommandKind.RFM_AB, -1, -1, 0.0)
        with pytest.raises(ProtocolViolation) as err:
            observe(checker, CommandKind.ACT, 0, 1, 100.0)  # tRFMab = 350
        assert err.value.constraint == "BLOCKED"

    def test_act_during_per_bank_rfm(self):
        checker = _checker()
        observe(checker, CommandKind.RFM_PB, 2, -1, 0.0)
        with pytest.raises(ProtocolViolation) as err:
            observe(checker, CommandKind.ACT, 2, 1, 50.0)  # tRFMpb = 130
        assert err.value.constraint == "BLOCKED"
        # ...while other banks stay usable.
        checker2 = _checker()
        observe(checker2, CommandKind.RFM_PB, 2, -1, 0.0)
        observe(checker2, CommandKind.ACT, 1, 1, 50.0)


class TestConstraintMatrix:
    """One stream per timing rule; the last command breaks it."""

    def _violations(self, feeds):
        """The constraint the first broken rule names (``[]`` if none)."""
        checker = ProtocolChecker(small_test_config())
        try:
            for kind, bank, row, t in feeds:
                observe(checker, kind, bank, row, t)
        except ProtocolViolation as violation:
            return [violation.constraint]
        return []

    def test_trc(self):
        out = self._violations([
            (CommandKind.ACT, 0, 1, 0.0),
            (CommandKind.PRE, 0, -1, 16.0),
            (CommandKind.ACT, 0, 2, 52.0 - 1.0),
        ])
        assert out == ["tRC"]

    def test_trp(self):
        # The PRE comes late enough that tRC (52) holds at the ACT.
        out = self._violations([
            (CommandKind.ACT, 0, 1, 0.0),
            (CommandKind.PRE, 0, -1, 30.0),
            (CommandKind.ACT, 0, 2, 30.0 + 36.0 - 1.0),
        ])
        assert out == ["tRP"]

    def test_tras(self):
        out = self._violations([
            (CommandKind.ACT, 0, 1, 0.0),
            (CommandKind.PRE, 0, -1, 10.0),
        ])
        assert out == ["tRAS"]

    def test_trcd(self):
        out = self._violations([
            (CommandKind.ACT, 0, 1, 0.0),
            (CommandKind.RD, 0, 1, 10.0),
        ])
        assert out == ["tRCD"]

    def test_trtp(self):
        out = self._violations([
            (CommandKind.ACT, 0, 1, 0.0),
            (CommandKind.RD, 0, 1, 16.0),
            (CommandKind.PRE, 0, -1, 17.0),
        ])
        assert out == ["tRTP"]

    def test_tccd(self):
        out = self._violations([
            (CommandKind.ACT, 0, 1, 0.0),
            (CommandKind.RD, 0, 1, 16.0),
            (CommandKind.RD, 0, 1, 17.0),
        ])
        assert out == ["tCCD"]

    def test_twr(self):
        # WR at 16: data ends at 16+16+2=34, recovery until 44.
        out = self._violations([
            (CommandKind.ACT, 0, 1, 0.0),
            (CommandKind.WR, 0, 1, 16.0),
            (CommandKind.PRE, 0, -1, 40.0),
        ])
        assert out == ["tWR"]

    def test_double_open(self):
        out = self._violations([
            (CommandKind.ACT, 0, 1, 0.0),
            (CommandKind.ACT, 0, 2, 100.0),
        ])
        assert out == ["OPEN"]

    def test_cas_row_mismatch(self):
        out = self._violations([
            (CommandKind.ACT, 0, 1, 0.0),
            (CommandKind.RD, 0, 2, 20.0),
        ])
        assert out == ["ROW"]

    def test_cas_without_open_row(self):
        out = self._violations([(CommandKind.RD, 0, 1, 0.0)])
        assert out == ["CLOSED"]

    def test_order(self):
        out = self._violations([
            (CommandKind.ACT, 0, 1, 100.0),
            (CommandKind.PRE, 0, -1, 50.0),
        ])
        assert out == ["ORDER"]

    @pytest.mark.parametrize("block", [CommandKind.REF, CommandKind.RFM_AB])
    def test_order_holds_across_a_channel_block(self, block):
        # REF/RFMab is a command on every bank: a later command stamped
        # before its start goes backwards, on the bank it closed (0) and
        # on one it found idle (1) alike.
        for bank in (0, 1):
            out = self._violations([
                (CommandKind.ACT, 0, 1, 100.0),
                (block, -1, -1, 1000.0),
                (CommandKind.PRE, bank, -1, 900.0),
            ])
            assert out == ["ORDER"], bank

    def test_channel_block_closes_the_open_rows(self):
        # The REF closes bank 0's row, so re-activating it after the
        # window (tRFC = 410) is clean; RD on the closed row is not.
        out = self._violations([
            (CommandKind.ACT, 0, 1, 100.0),
            (CommandKind.REF, -1, -1, 1000.0),
            (CommandKind.ACT, 0, 2, 1410.0),
            (CommandKind.RD, 0, 2, 1426.0),
            (CommandKind.REF, -1, -1, 2000.0),
            (CommandKind.RD, 0, 2, 2500.0),
        ])
        assert out == ["CLOSED"]

    def test_banks_may_interleave_out_of_global_order(self):
        # The controller stamps banks independently, so two banks'
        # commands can arrive out of global time order; only one bank's
        # stream going backwards is an ORDER violation (test_order).
        out = self._violations([
            (CommandKind.ACT, 1, 3, 10.0),
            (CommandKind.ACT, 0, 1, 0.0),
            (CommandKind.RD, 0, 1, 16.0),
            (CommandKind.RD, 1, 3, 26.0),
        ])
        assert out == []

    def test_refresh_must_wait_for_bus_drain(self):
        # RD at 16 occupies the bus until 16+16+2 = 34.
        out = self._violations([
            (CommandKind.ACT, 0, 1, 0.0),
            (CommandKind.RD, 0, 1, 16.0),
            (CommandKind.REF, -1, -1, 33.0),
        ])
        assert out == ["BUS"]

    def test_clean_stream_collects_nothing(self):
        out = self._violations([
            (CommandKind.ACT, 0, 1, 0.0),
            (CommandKind.RD, 0, 1, 16.0),
            (CommandKind.PRE, 0, -1, 21.0),
            (CommandKind.ACT, 0, 2, 57.0),
        ])
        assert out == []


class TestViolationStructure:
    def test_violation_carries_command_and_history(self):
        checker = _checker()
        observe(checker, CommandKind.ACT, 0, 1, 0.0)
        observe(checker, CommandKind.RD, 0, 1, 16.0)
        with pytest.raises(ProtocolViolation) as err:
            observe(checker, CommandKind.ACT, 0, 2, 20.0)
        violation = err.value
        assert violation.constraint == "OPEN"
        assert violation.command.bank_id == 0
        assert violation.command.issue_time == 20.0
        kinds = [c.kind for c in violation.history]
        assert kinds == [CommandKind.ACT, CommandKind.RD, CommandKind.ACT]
        assert "OPEN" in str(violation)


def _drive(policy, nbo=64, until=400_000, nreq=1200, enable_abo=True):
    """Run mixed read/write traffic through a sanitized controller."""
    config = small_test_config(nbo=nbo)
    mc = MemoryController(
        Engine(), config, policy=policy,
        system=SystemConfig(sanitize=True),
        enable_refresh=True, enable_abo=enable_abo,
    )
    state = {"n": 0}

    def issue(req=None):
        if state["n"] >= nreq:
            return
        n = state["n"]
        state["n"] += 1
        if n % 4 < 2:
            # hammer two rows of bank 0: conflict chain, counter growth
            mc.enqueue(MemRequest(
                phys_addr=bank_address(mc, 0, n % 2), on_complete=issue
            ))
        else:
            mc.enqueue(MemRequest(
                phys_addr=bank_address(mc, n % 4, (n * 7) % 9),
                is_write=(n % 3 == 0), on_complete=issue,
            ))

    issue()
    issue()
    issue()
    mc.engine.run(until=until)  # a broken rule raises mid-run
    assert mc.sanitizer is not None
    return mc


class TestRealTrafficIsClean:
    """The controller's own command stream passes its sanitizer."""

    def test_no_mitigation(self):
        mc = _drive(NoMitigationPolicy(), nbo=100_000)
        assert mc.stats.reads + mc.stats.writes > 0

    def test_abo_alert_path(self):
        mc = _drive(AboOnlyPolicy(), nbo=16)
        assert mc.abo.alert_count > 0          # ABO ordering was checked
        assert mc.channel.rfm_count > 0

    def test_tprac_tb_rfms(self):
        mc = _drive(TpracPolicy(tb_window=2000.0), nbo=100_000)
        assert mc.channel.rfm_count > 0

    def test_per_bank_rfms(self):
        mc = _drive(PerBankRfmPolicy(tb_window=4000.0), nbo=100_000)
        assert mc.policy.pb_rfms_issued > 0

    def test_sanitize_off_has_no_checker(self):
        mc = MemoryController(Engine(), small_test_config())
        assert mc.sanitizer is None
        assert mc._trace is None


class TestRealControllerTraces:
    """Dependent chains on a bare sanitized, traced controller.

    The sanitizer raises at the first broken rule; the recorded command
    stream only backs the ACT-count and REF/RFM-presence checks.
    """

    def _controller(self, policy, enable_refresh):
        config = small_test_config(nbo=100_000).with_prac(nbo=100_000)
        return MemoryController(
            Engine(), config, policy=policy,
            system=SystemConfig(sanitize=True, trace=True),
            enable_refresh=enable_refresh,
        )

    def _kinds(self, mc):
        """The recorded command kinds, in issue order."""
        return [event.kind for event in mc.recorder.events]

    def _verify(self, mc):
        assert mc.sanitizer is not None

    def test_conflict_heavy_trace_is_timing_clean(self):
        mc = self._controller(NoMitigationPolicy(), enable_refresh=False)
        state = {"n": 0}

        def issue(req=None):
            if state["n"] >= 60:
                return
            row = [1, 2, 3][state["n"] % 3]
            state["n"] += 1
            mc.enqueue(
                MemRequest(phys_addr=bank_address(mc, 0, row), on_complete=issue)
            )

        issue()
        mc.engine.run(until=50_000)
        assert self._kinds(mc).count(CommandKind.ACT.value) == 60
        self._verify(mc)

    def test_trace_with_refresh_and_tb_rfms_is_timing_clean(self):
        mc = self._controller(TpracPolicy(tb_window=2000.0), enable_refresh=True)
        state = {"n": 0}

        def issue(req=None):
            if state["n"] >= 120:
                return
            row = state["n"] % 5
            bank = state["n"] % 3
            state["n"] += 1
            mc.enqueue(
                MemRequest(
                    phys_addr=bank_address(mc, bank, row), on_complete=issue
                )
            )

        issue()
        mc.engine.run(until=60_000)
        kinds = set(self._kinds(mc))
        assert CommandKind.RFM_AB.value in kinds
        assert CommandKind.REF.value in kinds
        self._verify(mc)

    def test_multibank_write_trace_is_timing_clean(self):
        mc = self._controller(NoMitigationPolicy(), enable_refresh=False)
        state = {"n": 0}

        def issue(req=None):
            if state["n"] >= 80:
                return
            n = state["n"]
            state["n"] += 1
            mc.enqueue(
                MemRequest(
                    phys_addr=bank_address(mc, n % 4, (n * 7) % 9),
                    is_write=(n % 3 == 0),
                    on_complete=issue,
                )
            )

        issue()
        mc.engine.run(until=50_000)
        self._verify(mc)


class TestFig10ByteIdentical:
    """sanitize=True observes; it must never change results."""

    def test_perf_matrix_identical_with_sanitizer(self, monkeypatch):
        designs = [DesignPoint(design="abo_only", nrh=1024)]
        kw = dict(
            workloads=["433.milc"], cores=4, requests_per_core=300, seed=0
        )
        plain = run_perf_matrix(designs, **kw)
        checkers = []

        class RecordingChecker(ProtocolChecker):
            def __init__(self, config):
                super().__init__(config)
                checkers.append(self)

        monkeypatch.setattr(
            controller_mod, "DEFAULT_SYSTEM", SystemConfig(sanitize=True)
        )
        monkeypatch.setattr(controller_mod, "ProtocolChecker", RecordingChecker)
        sanitized = run_perf_matrix(designs, **kw)
        assert checkers, "no controller was built sanitized"
        as_json = lambda m: json.dumps(  # noqa: E731
            {k: [dataclasses.asdict(r) for r in v] for k, v in m.items()},
            sort_keys=True,
        )
        assert as_json(plain) == as_json(sanitized)


def _chain(policy, nbo, sanitize, banks=12, nreq=1500, until=200_000):
    """A dependent request chain over ``banks`` banks of a DDR5 channel.

    Three rows per bank in rotation keep rows open and conflicting, so
    every REF and RFMab lands on a channel with open banks to close.
    """
    config = ddr5_8000b().with_prac(nbo=nbo)
    mc = MemoryController(
        Engine(), config, policy=policy,
        system=SystemConfig(sanitize=sanitize),
    )
    state = {"n": 0}

    def issue(req=None):
        n = state["n"]
        if n >= nreq:
            return
        state["n"] += 1
        mc.enqueue(MemRequest(
            phys_addr=bank_address(mc, n % banks, (n // banks) % 3),
            is_write=(n % 5 == 0), on_complete=issue,
        ))

    issue()
    mc.engine.run(until=until)
    return mc


def _outcome(mc):
    stats = mc.stats
    return (
        mc.engine.now,
        stats.reads, stats.writes, stats.row_hits, stats.row_misses,
        stats.row_conflicts, stats.total_latency,
        [(r.time, r.provenance, r.mitigated_rows) for r in stats.rfm_records],
        mc.refresh.refresh_count,
        [(b.stats.activations, b.stats.precharges) for b in mc.channel],
    )


class TestChannelWideWindowsAreClean:
    """REF/RFMab over open banks: sanitizer-clean, results unchanged.

    ``Channel.block`` closes only the open banks and leaves the window
    in ``blocked_until``; the checker re-derives every ACT's legality
    from the command stream, so an ACT issued inside a REF or RFMab
    window, or one a closed row would forbid, is a violation here.
    """

    @pytest.mark.parametrize(
        "make_policy, nbo",
        [
            (lambda: TpracPolicy(tb_window=2000.0), 100_000),
            (AboOnlyPolicy, 32),
        ],
        ids=["tprac", "abo_only"],
    )
    def test_chain_over_banks(self, make_policy, nbo):
        mc = _chain(make_policy(), nbo, sanitize=True)
        assert mc.sanitizer is not None
        assert mc.stats.reads + mc.stats.writes == 1500
        touched = [b.bank_id for b in mc.channel if b.stats.activations]
        assert len(touched) >= 8
        # Several tREFI and RFMab windows fell inside the chain.
        assert mc.refresh.refresh_count >= 3
        assert mc.channel.rfm_count >= 3
        assert any(b.stats.precharges for b in mc.channel)
        plain = _chain(make_policy(), nbo, sanitize=False)
        assert plain.sanitizer is None
        assert _outcome(mc) == _outcome(plain)
