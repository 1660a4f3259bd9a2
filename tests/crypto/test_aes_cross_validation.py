"""Cross-validation: T-table AES vs the reference round-function AES."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.crypto.aes_reference import encrypt_block
from repro.crypto.aes_ttable import AesTTable


def test_reference_matches_fips197_vector():
    ct = encrypt_block(
        bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
        bytes.fromhex("00112233445566778899aabbccddeeff"),
    )
    assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


def test_reference_validates_inputs():
    with pytest.raises(ValueError):
        encrypt_block(b"short", bytes(16))
    with pytest.raises(ValueError):
        encrypt_block(bytes(16), b"short")


@settings(max_examples=60, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), pt=st.binary(min_size=16, max_size=16))
def test_implementations_agree_on_random_inputs(key, pt):
    """Two independent implementations, bit-identical ciphertexts."""
    assert AesTTable(key).encrypt(pt) == encrypt_block(key, pt)


@settings(max_examples=30, deadline=None)
@given(key=st.binary(min_size=16, max_size=16))
def test_avalanche_on_plaintext_bit_flip(key):
    """Flipping one plaintext bit changes roughly half the ciphertext."""
    base = encrypt_block(key, bytes(16))
    flipped = encrypt_block(key, bytes([0x01]) + bytes(15))
    differing = sum(bin(a ^ b).count("1") for a, b in zip(base, flipped))
    assert 30 <= differing <= 98     # ~64 expected over 128 bits


def test_distinct_keys_distinct_ciphertexts():
    pt = bytes(16)
    outputs = {encrypt_block(bytes([k]) + bytes(15), pt) for k in range(16)}
    assert len(outputs) == 16


def test_decrypt_inverts_fips197_vector():
    from tests.crypto.aes_reference import decrypt_block

    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    ct = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    assert decrypt_block(key, ct).hex() == "00112233445566778899aabbccddeeff"


@settings(max_examples=40, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), pt=st.binary(min_size=16, max_size=16))
def test_decrypt_roundtrips_encrypt(key, pt):
    from tests.crypto.aes_reference import decrypt_block

    assert decrypt_block(key, encrypt_block(key, pt)) == pt


def test_decrypt_validates_inputs():
    from tests.crypto.aes_reference import decrypt_block

    with pytest.raises(ValueError):
        decrypt_block(b"x", bytes(16))
    with pytest.raises(ValueError):
        decrypt_block(bytes(16), b"x")
