"""The AES victim process: T-table lookups as DRAM row activations.

The attack setup (paper Section 3.3): each of the four T-tables spans
16 cache lines, and *each cache line maps to a different DRAM row*.
The attacker flushes those lines (clflush / eviction sets) while the
victim encrypts, so every first-round lookup reaches DRAM and
increments the corresponding row's PRAC activation counter.

:class:`TTableLayout` pins the 64 table cache lines to DRAM rows;
:class:`AesVictim` runs chosen-plaintext encryptions and emits the DRAM
row stream of the first round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.aes_ttable import AesTTable, TableAccess
from repro.dram.address import DramAddress, MopMapping


@dataclass(frozen=True)
class TTableLayout:
    """Physical placement of the T-tables in DRAM.

    ``rows[(table, cache_line)]`` gives the DRAM row that a table's
    cache line occupies.  The paper's attack distinguishes the 16 cache
    lines of *one* table, so the layout places each of the 64 lines in
    a distinct row of ``bank`` (matching "each cache line mapped to a
    different DRAM row").
    """

    bank: int
    base_row: int

    def row_of(self, table: int, cache_line: int) -> int:
        """DRAM row holding one (table, cache_line) pair."""
        if not 0 <= table < 4:
            raise ValueError("table must be 0..3")
        if not 0 <= cache_line < 16:
            raise ValueError("cache_line must be 0..15")
        return self.base_row + table * 16 + cache_line

    def table_rows(self, table: int) -> List[int]:
        """The 16 rows holding one table, index = cache line number."""
        return [self.row_of(table, line) for line in range(16)]

    def phys_addr(self, mapping: MopMapping, table: int, cache_line: int) -> int:
        """A physical address inside the given table cache line."""
        org = mapping.org
        bank_group, bank = divmod(self.bank, org.banks_per_group)
        return mapping.encode(
            DramAddress(
                channel=0,
                rank=0,
                bank_group=bank_group % org.bank_groups,
                bank=bank,
                row=self.row_of(table, cache_line),
                column=0,
            )
        )


class AesVictim:
    """A victim performing encryptions with attacker-chosen plaintexts.

    The attacker fixes plaintext byte ``target_byte`` and randomizes
    the rest; across ``n`` encryptions the T-table cache line indexed
    by ``p_t XOR k_t`` receives roughly double the accesses of the
    other lines (it is hit once *per encryption* deterministically plus
    the random background), so its DRAM row becomes the most activated.
    """

    def __init__(
        self,
        key: bytes,
        layout: Optional[TTableLayout] = None,
        seed: int = 1234,
    ) -> None:
        self.aes = AesTTable(key)
        self.layout = layout or TTableLayout(bank=0, base_row=0)
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    def encrypt_chosen(
        self, target_byte: int, fixed_value: int
    ) -> List[TableAccess]:
        """One encryption with ``p[target_byte] = fixed_value``, rest random."""
        if not 0 <= target_byte < 16:
            raise ValueError("target_byte must be 0..15")
        if not 0 <= fixed_value < 256:
            raise ValueError("fixed_value must be a byte")
        plaintext = bytearray(self._rng.randrange(256) for _ in range(16))
        plaintext[target_byte] = fixed_value
        return self.aes.first_round_accesses(bytes(plaintext))

    def first_round_rows(
        self, target_byte: int, fixed_value: int, encryptions: int
    ) -> Tuple[List[int], Dict[int, int]]:
        """Row activation stream over ``encryptions`` chosen-plaintext runs.

        Returns the ordered row stream (what reaches DRAM after the
        attacker's flushes) and the per-row activation histogram for
        the *target table* (table ``target_byte % 4``).
        """
        stream: List[int] = []
        histogram: Dict[int, int] = {}
        table_of_interest = target_byte % 4
        for _ in range(encryptions):
            for access in self.encrypt_chosen(target_byte, fixed_value):
                row = self.layout.row_of(access.table, access.cache_line)
                stream.append(row)
                if access.table == table_of_interest:
                    histogram[row] = histogram.get(row, 0) + 1
        return stream, histogram

    def hottest_row(self, histogram: Dict[int, int]) -> int:
        """Most-activated row; ties resolve to the lowest row index."""
        if not histogram:
            raise ValueError("empty histogram")
        return min(histogram, key=lambda row: (-histogram[row], row))

    # ------------------------------------------------------------------
    def expected_hot_line(self, target_byte: int, fixed_value: int) -> int:
        """Ground truth: cache line ``(p XOR k) >> 4`` for the fixed byte."""
        key_byte = self.aes.key[target_byte]
        return (fixed_value ^ key_byte) >> 4
