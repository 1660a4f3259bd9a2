"""AES-128 encryption with T-tables, instrumented for access tracing.

This is a from-scratch implementation of the Rijndael cipher as
standardized in FIPS-197, in the "32-bit table lookup" style used by
OpenSSL and GnuPG: rounds 1-9 are computed with four 1 KB tables
(T0..T3) whose entries combine SubBytes, ShiftRows and MixColumns; the
final round uses the plain S-box.  Every T-table lookup is recorded as
a :class:`TableAccess`, which the side-channel experiments turn into
DRAM row activations.

The S-box is *derived* (multiplicative inverse in GF(2^8) followed by
the affine transform) rather than pasted, and the implementation is
verified against the FIPS-197 Appendix C known-answer vector in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


def _xtime(value: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8) modulo the AES polynomial."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(2^8) with the AES reduction polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> Tuple[List[int], List[int]]:
    """Derive the AES S-box: GF(2^8) inverse + affine transformation."""
    # Multiplicative inverses from exp/log tables: the powers of the
    # generator 0x03 run through all 255 nonzero elements, and the
    # inverse of 3^i is 3^(255 - i).  Multiplying by 3 is xtime + xor.
    power = [0] * 255
    log = [0] * 256
    value = 1
    for exponent in range(255):
        power[exponent] = value
        log[value] = exponent
        value ^= _xtime(value)
    inverse = [0] * 256
    for x in range(1, 256):
        inverse[x] = power[(255 - log[x]) % 255]
    sbox = [0] * 256
    for x in range(256):
        b = inverse[x]
        value = 0x63
        for shift in range(5):
            value ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox[x] = value & 0xFF
    inv_sbox = [0] * 256
    for x, s in enumerate(sbox):
        inv_sbox[s] = x
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()


def _build_ttables() -> List[List[int]]:
    """The four encryption T-tables (each 256 x 32-bit words)."""
    t0 = []
    for x in range(256):
        s = SBOX[x]
        s2 = gf_mul(s, 2)
        s3 = gf_mul(s, 3)
        t0.append((s2 << 24) | (s << 16) | (s << 8) | s3)

    def rot(word: int, bits: int) -> int:
        return ((word >> bits) | (word << (32 - bits))) & 0xFFFFFFFF

    return [t0, [rot(w, 8) for w in t0], [rot(w, 16) for w in t0], [rot(w, 24) for w in t0]]


TTABLES = _build_ttables()

RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def expand_key(key: bytes) -> List[int]:
    """AES-128 key schedule: 16-byte key -> 44 32-bit round-key words."""
    if len(key) != 16:
        raise ValueError("AES-128 requires a 16-byte key")
    words = [int.from_bytes(key[4 * i: 4 * i + 4], "big") for i in range(4)]
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            rotated = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF
            substituted = 0
            for shift in (24, 16, 8, 0):
                substituted |= SBOX[(rotated >> shift) & 0xFF] << shift
            temp = substituted ^ (RCON[i // 4 - 1] << 24)
        words.append(words[i - 4] ^ temp)
    return words


@dataclass(frozen=True)
class TableAccess:
    """One T-table lookup: which table, which byte index, which round."""

    round_index: int    # 1..10 (10 = final round, S-box as table)
    table: int          # 0..3
    index: int          # 0..255

    @property
    def cache_line(self) -> int:
        """Cache line within the table: 16 entries of 4 B per 64 B line."""
        return self.index >> 4


class AesTTable:
    """Instrumented AES-128 encryptor.

    >>> aes = AesTTable(bytes(range(16)))
    >>> ct = aes.encrypt(bytes.fromhex("00112233445566778899aabbccddeeff"))
    >>> ct.hex()
    '69c4e0d86a7b0430d8cdb78070b4c55a'
    """

    def __init__(self, key: bytes) -> None:
        self.key = bytes(key)
        self.round_keys = expand_key(self.key)
        self.accesses: List[TableAccess] = []
        self.record_accesses = True

    # ------------------------------------------------------------------
    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt one 16-byte block, recording all table lookups."""
        if len(plaintext) != 16:
            raise ValueError("AES block must be 16 bytes")
        rk = self.round_keys
        state = [
            int.from_bytes(plaintext[4 * i: 4 * i + 4], "big") ^ rk[i]
            for i in range(4)
        ]
        for round_index in range(1, 10):
            state = self._round(state, rk[4 * round_index: 4 * round_index + 4], round_index)
        state = self._final_round(state, rk[40:44])
        out = b"".join(word.to_bytes(4, "big") for word in state)
        return out

    def _lookup(self, table: int, index: int, round_index: int) -> int:
        if self.record_accesses:
            self.accesses.append(
                TableAccess(round_index=round_index, table=table, index=index)
            )
        return TTABLES[table][index]

    def _round(self, state: Sequence[int], rk: Sequence[int], round_index: int) -> List[int]:
        s0, s1, s2, s3 = state
        out = []
        columns = (
            (s0, s1, s2, s3),
            (s1, s2, s3, s0),
            (s2, s3, s0, s1),
            (s3, s0, s1, s2),
        )
        for col, (a, b, c, d) in enumerate(columns):
            word = (
                self._lookup(0, (a >> 24) & 0xFF, round_index)
                ^ self._lookup(1, (b >> 16) & 0xFF, round_index)
                ^ self._lookup(2, (c >> 8) & 0xFF, round_index)
                ^ self._lookup(3, d & 0xFF, round_index)
                ^ rk[col]
            )
            out.append(word)
        return out

    def _final_round(self, state: Sequence[int], rk: Sequence[int]) -> List[int]:
        s0, s1, s2, s3 = state
        out = []
        columns = (
            (s0, s1, s2, s3),
            (s1, s2, s3, s0),
            (s2, s3, s0, s1),
            (s3, s0, s1, s2),
        )
        for col, (a, b, c, d) in enumerate(columns):
            word = (
                (SBOX[(a >> 24) & 0xFF] << 24)
                | (SBOX[(b >> 16) & 0xFF] << 16)
                | (SBOX[(c >> 8) & 0xFF] << 8)
                | SBOX[d & 0xFF]
            ) ^ rk[col]
            if self.record_accesses:
                # Final round uses the S-box table; record for completeness.
                for table, index in (
                    (0, (a >> 24) & 0xFF),
                    (1, (b >> 16) & 0xFF),
                    (2, (c >> 8) & 0xFF),
                    (3, d & 0xFF),
                ):
                    self.accesses.append(
                        TableAccess(round_index=10, table=table, index=index)
                    )
            out.append(word)
        return out

    # ------------------------------------------------------------------
    def first_round_accesses(self, plaintext: bytes) -> List[TableAccess]:
        """Only the 16 first-round lookups (what the attack targets).

        First-round indices are exactly ``p_i XOR k_i`` with byte ``i``
        feeding table ``i mod 4``.
        """
        self.accesses = []
        self.encrypt(plaintext)
        return [a for a in self.accesses if a.round_index == 1]

