"""Unit tests for the Channel aggregate."""

from repro.dram.config import small_test_config
from repro.dram.rank import Channel


def test_channel_builds_all_banks():
    config = small_test_config()
    channel = Channel(config)
    assert len(channel) == config.organization.total_banks
    assert [bank.bank_id for bank in channel] == list(range(len(channel)))


def test_block_closes_rows_and_pushes_ready():
    channel = Channel(small_test_config())
    channel.bank(0).activate(3, time=0.0)
    end = channel.block(start=100.0, duration=350.0)
    assert end == 450.0
    assert channel.blocked_until == 450.0
    assert channel.bank(0).open_row is None
    assert channel.open_banks == set()
    # The window is kept once, in blocked_until: no bank may ACT before
    # it ends once the floor is folded in.
    for bank in channel:
        assert max(bank.ready_at, channel.blocked_until) >= 450.0
    # Only the bank that had a row open was precharged.
    assert [bank.stats.precharges for bank in channel] == [1] + [0] * (len(channel) - 1)
    assert channel.bank(0).precharge_done_at == 100.0 + channel.config.timing.tRP


def test_block_with_no_open_bank_precharges_nothing():
    channel = Channel(small_test_config())
    channel.block(start=0.0, duration=350.0)
    assert channel.blocked_until == 350.0
    for bank in channel:
        assert bank.stats.precharges == 0
        assert bank.precharge_done_at == 0.0
        assert max(bank.ready_at, channel.blocked_until) >= 350.0


def test_open_banks_tracks_activate_and_precharge():
    channel = Channel(small_test_config())
    channel.bank(2).activate(1, 0.0)
    channel.bank(0).activate(4, 0.0)
    assert channel.open_banks == {0, 2}
    assert channel.activated_banks == {0, 2}
    channel.bank(2).precharge(60.0)
    assert channel.open_banks == {0}
    assert channel.activated_banks == {0, 2}


def test_block_extends_not_shrinks():
    channel = Channel(small_test_config())
    channel.block(0.0, 1000.0)
    channel.block(100.0, 10.0)
    assert channel.blocked_until == 1000.0


def test_block_bank_only_affects_one_bank():
    channel = Channel(small_test_config())
    channel.bank(1).activate(2, 0.0)
    channel.block_bank(1, start=0.0, duration=130.0)
    assert channel.bank(1).ready_at >= 130.0
    assert channel.bank(0).ready_at == 0.0
    assert channel.blocked_until == 0.0


def test_reset_all_counters_spans_banks():
    channel = Channel(small_test_config())
    channel.bank(0).activate(1, 0.0)
    channel.bank(2).activate(5, 0.0)
    channel.reset_all_counters()
    assert channel.bank(0).counter(1) == 0
    assert channel.bank(2).counter(5) == 0
