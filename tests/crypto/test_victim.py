"""Tests for the AES victim's DRAM-row access behaviour."""

import pytest

from repro.crypto.victim import AesVictim, TTableLayout


def _hottest_row(histogram):
    """Most-activated row; ties resolve to the lowest row index."""
    return min(histogram, key=lambda row: (-histogram[row], row))


def test_layout_distinct_rows_for_all_64_lines():
    layout = TTableLayout(bank=0, base_row=100)
    rows = {
        layout.row_of(table, line) for table in range(4) for line in range(16)
    }
    assert len(rows) == 64
    assert min(rows) == 100


def test_layout_validates_arguments():
    layout = TTableLayout(bank=0, base_row=0)
    with pytest.raises(ValueError):
        layout.row_of(4, 0)
    with pytest.raises(ValueError):
        layout.row_of(0, 16)


def test_hot_row_matches_key_nibble():
    key = bytes([0x9C]) + bytes(15)
    victim = AesVictim(key)
    _, hist = victim.first_round_rows(target_byte=0, fixed_value=0, encryptions=150)
    # Ground truth: cache line (p XOR k) >> 4 for the fixed byte.
    assert _hottest_row(hist) == (0 ^ key[0]) >> 4 == 0x9


def test_hot_row_shifts_with_plaintext():
    key = bytes([0x00]) + bytes(15)
    victim = AesVictim(key)
    _, hist = victim.first_round_rows(target_byte=0, fixed_value=0xF0, encryptions=150)
    assert _hottest_row(hist) == 0xF


def test_hot_row_roughly_double_background():
    victim = AesVictim(bytes(16))
    _, hist = victim.first_round_rows(target_byte=0, fixed_value=0, encryptions=200)
    hot = _hottest_row(hist)
    background = [count for row, count in hist.items() if row != hot]
    mean_bg = sum(background) / len(background)
    # Hot line: ~1 deterministic hit/encryption + background share.
    assert hist[hot] > 3 * mean_bg
    assert hist[hot] >= 200


def test_other_target_bytes_use_their_table():
    key = bytes(16)
    victim = AesVictim(key)
    _, hist = victim.first_round_rows(target_byte=5, fixed_value=0, encryptions=50)
    table = 5 % 4
    layout_rows = set(victim.layout.table_rows(table))
    assert set(hist).issubset(layout_rows)


def test_chosen_plaintext_validation():
    victim = AesVictim(bytes(16))
    with pytest.raises(ValueError):
        victim.encrypt_chosen(16, 0)
    with pytest.raises(ValueError):
        victim.encrypt_chosen(0, 300)


def test_stream_is_seeded_deterministic():
    a = AesVictim(bytes(16), seed=5).first_round_rows(0, 0, 20)
    b = AesVictim(bytes(16), seed=5).first_round_rows(0, 0, 20)
    assert a == b
