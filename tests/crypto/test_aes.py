"""Tests for the AES-128 T-table implementation (FIPS-197 correctness)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes_ttable import (
    SBOX,
    INV_SBOX,
    TTABLES,
    AesTTable,
    expand_key,
    gf_mul,
)


def test_fips197_appendix_c_vector():
    aes = AesTTable(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    ct = aes.encrypt(bytes.fromhex("00112233445566778899aabbccddeeff"))
    assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


def test_fips197_appendix_b_vector():
    aes = AesTTable(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    ct = aes.encrypt(bytes.fromhex("3243f6a8885a308d313198a2e0370734"))
    assert ct.hex() == "3925841d02dc09fbdc118597196a0b32"


def test_sbox_is_a_permutation_with_known_anchors():
    assert sorted(SBOX) == list(range(256))
    assert SBOX[0x00] == 0x63
    assert SBOX[0x01] == 0x7C
    assert SBOX[0x53] == 0xED


def test_inverse_sbox_inverts():
    assert all(INV_SBOX[SBOX[x]] == x for x in range(256))


def test_gf_mul_basics():
    assert gf_mul(0x57, 0x01) == 0x57
    assert gf_mul(0x57, 0x02) == 0xAE
    assert gf_mul(0x57, 0x13) == 0xFE   # FIPS-197 section 4.2 example


def test_ttables_are_rotations_of_t0():
    def rot(w, bits):
        return ((w >> bits) | (w << (32 - bits))) & 0xFFFFFFFF

    for index in range(256):
        w = TTABLES[0][index]
        assert TTABLES[1][index] == rot(w, 8)
        assert TTABLES[2][index] == rot(w, 16)
        assert TTABLES[3][index] == rot(w, 24)


def test_key_expansion_length_and_first_words():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    words = expand_key(key)
    assert len(words) == 44
    assert words[0] == 0x2B7E1516
    assert words[4] == 0xA0FAFE17   # FIPS-197 Appendix A.1


def test_key_must_be_16_bytes():
    with pytest.raises(ValueError):
        AesTTable(b"short")


def test_block_must_be_16_bytes():
    with pytest.raises(ValueError):
        AesTTable(bytes(16)).encrypt(b"x")


def test_first_round_accesses_are_p_xor_k():
    key = bytes(range(16))
    aes = AesTTable(key)
    plaintext = bytes([0xAA] * 16)
    accesses = aes.first_round_accesses(plaintext)
    assert len(accesses) == 16
    expected = sorted((i % 4, 0xAA ^ key[i]) for i in range(16))
    assert sorted((a.table, a.index) for a in accesses) == expected


def test_access_recording_can_be_disabled():
    aes = AesTTable(bytes(16))
    aes.record_accesses = False
    aes.encrypt(bytes(16))
    assert aes.accesses == []


def test_cache_line_is_top_nibble():
    from repro.crypto.aes_ttable import TableAccess

    assert TableAccess(1, 0, 0x37).cache_line == 3
    assert TableAccess(1, 0, 0x0F).cache_line == 0


@settings(max_examples=25, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), pt=st.binary(min_size=16, max_size=16))
def test_encryption_is_deterministic_and_records_160_lookups(key, pt):
    aes = AesTTable(key)
    first = aes.encrypt(pt)
    # 9 T-table rounds x 16 lookups + 16 final-round S-box lookups.
    assert len(aes.accesses) == 160
    assert AesTTable(key).encrypt(pt) == first
