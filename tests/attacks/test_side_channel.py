"""End-to-end tests of the PRACLeak AES side channel + TPRAC defense."""

import pytest

from repro.attacks.side_channel import AesSideChannelAttack


KEY = bytes.fromhex("372a1f0c5b6e9d804142434445464748")


def test_recovers_key_nibble_byte0():
    attack = AesSideChannelAttack(KEY, nbo=256, encryptions=200)
    result = attack.run_single(target_byte=0, fixed_value=0)
    assert result.success
    assert result.recovered_nibble == KEY[0] >> 4 == 0x3


def test_recovers_nibbles_for_multiple_bytes():
    attack = AesSideChannelAttack(KEY, nbo=256, encryptions=200)
    for byte_index in (1, 2, 3):
        result = attack.run_single(target_byte=byte_index, fixed_value=0)
        assert result.success, f"byte {byte_index} failed"


def test_nonzero_plaintext_byte_still_recovers():
    attack = AesSideChannelAttack(KEY, nbo=256, encryptions=200)
    result = attack.run_single(target_byte=0, fixed_value=0xC8)
    assert result.recovered_nibble == KEY[0] >> 4


def test_victim_plus_attacker_acts_sum_to_nbo():
    """The paper's Figure 5(b) invariant."""
    attack = AesSideChannelAttack(KEY, nbo=256, encryptions=200)
    result = attack.run_single(target_byte=0, fixed_value=0)
    assert result.trigger_row is not None
    # The triggering row's victim activations + attacker activations
    # equal N_BO (within row-buffer-hit slack on the victim side).
    hot_row_victim = result.victim_histogram.get(result.trigger_row, 0)
    total = hot_row_victim + result.attacker_acts_on_trigger
    assert abs(total - 256) <= 16


def test_tprac_defense_blocks_recovery():
    attack = AesSideChannelAttack(KEY, nbo=256, encryptions=150, defense="tprac")
    results = [attack.run_single(0, 0), attack.run_single(1, 0)]
    # With TPRAC the first observed RFM is timing-based: no ABO fires
    # and the recovered nibble is uncorrelated with the key.
    assert all(len(r.rfm_times) > 0 for r in results)
    successes = sum(1 for r in results if r.success)
    assert successes == 0 or not all(r.success for r in results)


def test_defense_validation():
    with pytest.raises(ValueError):
        AesSideChannelAttack(KEY, defense="firewall")


def test_timeline_recording():
    attack = AesSideChannelAttack(
        KEY, nbo=256, encryptions=60, record_timeline=True
    )
    result = attack.run_single(0, 0)
    assert result.probe_timeline
    assert result.activation_timeline
    times = [t for t, _ in result.probe_timeline]
    assert times == sorted(times)


def test_key_sweep_tracks_nibble():
    attack = AesSideChannelAttack(bytes(16), nbo=256, encryptions=150)
    results = attack.run_key_sweep([0x00, 0x40, 0xF0])
    assert [r.true_nibble for r in results] == [0x0, 0x4, 0xF]
    assert all(r.success for r in results)
