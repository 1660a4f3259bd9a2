"""Recorded command streams replayed through the protocol sanitizer.

The controller hands every issued command to
:meth:`ProtocolChecker.observe_command` as a
:class:`~repro.dram.commands.Command` record.  These tests replay
hand-built records through a checker: a broken stream stops at the
offending command with the expected constraint, and a clean stream
passes whole.  ``tests/dram/test_sanitizer.py`` covers each rule.
"""

import pytest

from repro.dram.commands import Command, CommandKind
from repro.dram.config import small_test_config
from repro.dram.sanitizer import ProtocolChecker, ProtocolViolation


def _cmd(kind, bank=0, row=0, t=0.0):
    return Command(kind=kind, bank_id=bank, row=row, issue_time=t)


def _replay(commands):
    checker = ProtocolChecker(small_test_config())
    for command in commands:
        checker.observe_command(command)
    return checker


def _first_violation(commands):
    with pytest.raises(ProtocolViolation) as err:
        _replay(commands)
    return err.value


class TestSyntheticStreams:
    def test_clean_sequence_passes(self):
        _replay([
            _cmd(CommandKind.ACT, row=1, t=0.0),
            _cmd(CommandKind.RD, row=1, t=16.0),
            _cmd(CommandKind.PRE, t=21.0),
            _cmd(CommandKind.ACT, row=2, t=57.0),
        ])

    def test_trc_violation_detected(self):
        bad = _cmd(CommandKind.ACT, row=2, t=52.0 - 1.0)
        violation = _first_violation([
            _cmd(CommandKind.ACT, row=1, t=0.0),
            _cmd(CommandKind.PRE, t=16.0),
            bad,
        ])
        assert violation.constraint == "tRC"
        assert violation.command is bad

    def test_tras_violation_detected(self):
        bad = _cmd(CommandKind.PRE, t=10.0)
        violation = _first_violation([
            _cmd(CommandKind.ACT, row=1, t=0.0),
            bad,
        ])
        assert violation.constraint == "tRAS"
        assert violation.command is bad

    def test_trcd_violation_detected(self):
        bad = _cmd(CommandKind.RD, row=1, t=10.0)
        violation = _first_violation([
            _cmd(CommandKind.ACT, row=1, t=0.0),
            bad,
        ])
        assert violation.constraint == "tRCD"
        assert violation.command is bad

    def test_act_on_open_bank_detected(self):
        bad = _cmd(CommandKind.ACT, row=2, t=100.0)
        violation = _first_violation([
            _cmd(CommandKind.ACT, row=1, t=0.0),
            bad,
        ])
        assert violation.constraint == "OPEN"
        assert violation.command is bad

    def test_cas_to_wrong_row_detected(self):
        bad = _cmd(CommandKind.RD, row=2, t=20.0)
        violation = _first_violation([
            _cmd(CommandKind.ACT, row=1, t=0.0),
            bad,
        ])
        assert violation.constraint == "ROW"
        assert violation.command is bad

    def test_command_inside_rfm_window_detected(self):
        bad = _cmd(CommandKind.ACT, row=1, t=100.0)  # inside 350ns block
        violation = _first_violation([
            _cmd(CommandKind.RFM_AB, bank=-1, row=-1, t=0.0),
            bad,
        ])
        assert violation.constraint == "BLOCKED"
        assert violation.command is bad

    def test_out_of_order_stream_detected_without_sort(self):
        # The checker takes records in the order given and never sorts
        # them, so one bank's stream going backwards is caught.
        bad = _cmd(CommandKind.PRE, t=50.0)
        violation = _first_violation([
            _cmd(CommandKind.ACT, row=1, t=100.0),
            bad,
        ])
        assert violation.constraint == "ORDER"
        assert violation.command is bad
