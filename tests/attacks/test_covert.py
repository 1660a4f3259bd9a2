"""End-to-end tests of the PRACLeak covert channels."""


import pytest

from repro.attacks.covert import (
    ActivationCountChannel,
    ActivityChannel,
    CovertChannelResult,
)
from repro.mitigations import MITIGATIONS


class TestActivityChannel:
    def test_transmits_bits_without_error(self):
        message = [1, 0, 1, 1, 0, 0, 1, 0]
        result = ActivityChannel(nbo=256, message=message).run()
        assert result.received_bits == message
        assert result.error_rate == 0.0

    def test_all_zero_message_stays_silent(self):
        result = ActivityChannel(nbo=256, message=[0, 0, 0, 0]).run()
        assert result.received_bits == [0, 0, 0, 0]

    def test_all_one_message(self):
        result = ActivityChannel(nbo=256, message=[1, 1, 1, 1]).run()
        assert result.received_bits == [1, 1, 1, 1]

    def test_bitrate_decreases_with_nbo(self):
        fast = ActivityChannel(nbo=256, message=[1, 0]).run()
        slow = ActivityChannel(nbo=1024, message=[1, 0]).run()
        assert slow.bitrate_kbps < fast.bitrate_kbps
        assert slow.period_us > 3 * fast.period_us

    def test_one_bit_per_symbol(self):
        result = ActivityChannel(nbo=256, message=[1]).run()
        assert result.bits_per_symbol == 1


class TestActivationCountChannel:
    def test_values_recovered_exactly(self):
        values = [0, 17, 100, 255, 42]
        channel = ActivationCountChannel(nbo=256, values=values)
        result = channel.run()
        assert result.error_rate == 0.0
        assert _decode_values(result) == values

    def test_boundary_values(self):
        values = [0, 1, 254, 255]
        result = ActivationCountChannel(nbo=256, values=values).run()
        assert _decode_values(result) == values

    def test_log2_nbo_bits_per_symbol(self):
        result = ActivationCountChannel(nbo=512, values=[5]).run()
        assert result.bits_per_symbol == 9

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            ActivationCountChannel(nbo=256, values=[256])

    def test_higher_bitrate_than_activity_channel(self):
        """The paper's headline: count channel beats activity channel."""
        activity = ActivityChannel(nbo=256, message=[1, 0, 1, 0]).run()
        count = ActivationCountChannel(nbo=256, values=[10, 200, 37, 99]).run()
        assert count.bitrate_kbps > 2 * activity.bitrate_kbps


def _decode_values(result: CovertChannelResult):
    bits = result.received_bits
    bps = result.bits_per_symbol
    out = []
    for i in range(result.symbols):
        chunk = bits[i * bps: (i + 1) * bps]
        out.append(sum(b << (bps - 1 - j) for j, b in enumerate(chunk)))
    return out


def test_error_rate_counts_length_mismatch():
    result = CovertChannelResult(
        sent_bits=[1, 0, 1],
        received_bits=[1, 0],
        window_ns=1.0,
        elapsed_ns=3.0,
        symbols=3,
        bits_per_symbol=1,
    )
    assert result.error_rate == pytest.approx(1 / 3)


class _Built(Exception):
    """Raised by the setup hook once the channel's system is built."""


@pytest.mark.parametrize(
    "build",
    [
        lambda name: ActivityChannel(message=[1], mitigation=name, seed=3),
        lambda name: ActivationCountChannel(values=[5], mitigation=name, seed=3),
    ],
    ids=["activity", "count"],
)
def test_each_mitigation_name_reaches_the_channel_controller(build):
    for name in MITIGATIONS:
        seen = []

        def setup(engine, controller):
            seen.append(controller.policy.name)
            raise _Built

        with pytest.raises(_Built):
            build(name).run(setup=setup)
        assert seen == [name]

