"""Unit tests for the DRAM command vocabulary."""

from repro.dram.commands import Command, CommandKind, RfmProvenance


def test_all_bank_detection():
    assert Command(kind=CommandKind.REF).is_all_bank
    assert Command(kind=CommandKind.RFM_AB).is_all_bank
    assert not Command(kind=CommandKind.RFM_PB).is_all_bank
    assert not Command(kind=CommandKind.RD).is_all_bank


def test_provenance_values_cover_paper_taxonomy():
    assert {p.value for p in RfmProvenance} == {"abo", "acb", "tb", "random"}


def test_command_defaults():
    command = Command(kind=CommandKind.ACT, bank_id=3, row=7, issue_time=12.5)
    assert command.provenance is None
    assert command.meta == {}
    assert repr(command)  # smoke: the debugging repr renders
