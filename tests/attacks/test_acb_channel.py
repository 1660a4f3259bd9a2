"""Tests for the ACB-RFM timing channel (Figure 2(b)) and its closure."""

import pytest

from repro.attacks.acb_channel import AcbRfmChannel

MESSAGE = [1, 0, 1, 1, 0, 0, 1, 0]


def test_acb_rfms_leak_activity_levels():
    """The JEDEC Targeted-RFM flow is itself a covert channel."""
    result = AcbRfmChannel(message=MESSAGE, defense="acb").run()
    assert result.error_rate == 0.0
    assert result.received_bits == MESSAGE
    # RFM counts correlate with the sender's activity.
    ones = [c for c, b in zip(result.rfm_counts_per_window, MESSAGE) if b]
    zeros = [c for c, b in zip(result.rfm_counts_per_window, MESSAGE) if not b]
    assert min(ones) >= 2
    assert max(zeros) <= 1


def test_tprac_flattens_rfm_counts():
    """Under TPRAC the RFM count per window is activity-independent."""
    result = AcbRfmChannel(message=MESSAGE, defense="tprac").run()
    counts = result.rfm_counts_per_window
    assert max(counts) - min(counts) <= 1
    # The decoder can do no better than chance: its output carries no
    # correlation with the message (all-ones or all-zeros here).
    assert result.received_bits in (
        [1] * len(MESSAGE),
        [0] * len(MESSAGE),
    )


def test_defense_validation():
    with pytest.raises(ValueError):
        AcbRfmChannel(message=MESSAGE, defense="none")


def test_all_zero_message_silent_under_acb():
    result = AcbRfmChannel(message=[0, 0, 0, 0], defense="acb").run()
    assert result.received_bits == [0, 0, 0, 0]
    assert sum(result.rfm_counts_per_window) == 0
