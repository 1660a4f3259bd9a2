"""Physical address to DRAM-coordinate mapping.

:class:`MopMapping` is Minimalist Open Page (Kaseridis et al.,
MICRO'11), the policy used by the paper's memory controller.  MOP
stripes small blocks of consecutive cache lines across banks to mix
row-buffer locality with bank-level parallelism.  This striping is
exactly what lets two 4 KB pages from different processes share one
8 KB DRAM row — the enabler of the activation-count-based channel.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.dram.config import DramOrganization

#: Consecutive cache lines per MOP block (Kaseridis et al.'s width).
MOP_WIDTH = 4


class DramAddress(NamedTuple):
    """A decoded DRAM coordinate.

    A ``NamedTuple`` rather than a frozen dataclass: addresses are
    created once per decoded request on the simulator's hot path, and
    tuple construction is several times cheaper than a frozen
    dataclass's ``object.__setattr__`` init while keeping the same
    immutability, equality, hashing and field ordering semantics.
    """

    channel: int
    rank: int
    bank_group: int
    bank: int
    row: int
    column: int

    def flat_bank(self, org: DramOrganization) -> int:
        """Flat bank index across the whole channel (rank-major)."""
        # Multiplied out rather than read through the banks_per_rank
        # property: the controller runs this once per decoded address.
        return (self.rank * org.bank_groups + self.bank_group) * org.banks_per_group + self.bank


class MopMapping:
    """Minimalist Open Page mapping.

    Consecutive cache lines first stripe across channels, then group
    into MOP blocks of :data:`MOP_WIDTH` lines that stay in the same
    row/bank; successive blocks rotate across banks, then ranks, then
    advance the row.  The channel bits sit **below** the MOP block so
    every channel receives an equal share of each block's lines, and
    consecutive cache lines stripe across all channels.  With
    ``channels == 1`` the channel field contributes no bits.  Bit layout
    (LSB -> MSB)::

        offset : channel : mop_block(column low) : bank : bank_group :
        rank : column_high : row
    """

    def __init__(self, org: DramOrganization) -> None:
        if org.columns_per_row % MOP_WIDTH != 0:
            raise ValueError(
                f"MOP width {MOP_WIDTH} must divide columns/row "
                f"({org.columns_per_row})"
            )
        self.org = org
        # decode's field sizes, LSB first, read from the organization
        # once (columns_per_row is a property).
        self._radices = (
            org.cacheline_bytes, org.channels, MOP_WIDTH, org.banks_per_group,
            org.bank_groups, org.ranks, org.columns_per_row // MOP_WIDTH,
            org.rows_per_bank,
        )

    def decode(self, phys_addr: int) -> DramAddress:
        """Map a byte physical address to a DRAM coordinate."""
        # A direct div/mod chain, without temporary lists or tuples:
        # this runs once per DRAM request.
        (line_bytes, channels, mop_width, banks_per_group, bank_groups,
         ranks, col_blocks, rows_per_bank) = self._radices
        line = phys_addr // line_bytes
        channel = line % channels
        line //= channels
        col_low = line % mop_width
        line //= mop_width
        bank = line % banks_per_group
        line //= banks_per_group
        bank_group = line % bank_groups
        line //= bank_groups
        rank = line % ranks
        line //= ranks
        col_high = line % col_blocks
        row = line // col_blocks
        return DramAddress(
            channel, rank, bank_group, bank, row % rows_per_bank,
            col_high * mop_width + col_low,
        )

    def encode(self, addr: DramAddress) -> int:
        """Map a DRAM coordinate back to a byte physical address."""
        org = self.org
        col_high, col_low = divmod(addr.column, MOP_WIDTH)
        line = addr.row
        line = line * (org.columns_per_row // MOP_WIDTH) + col_high
        line = line * org.ranks + addr.rank
        line = line * org.bank_groups + addr.bank_group
        line = line * org.banks_per_group + addr.bank
        line = line * MOP_WIDTH + col_low
        line = line * org.channels + addr.channel
        return line * org.cacheline_bytes

    def channel_of(self, phys_addr: int) -> int:
        """Channel index alone — the request-routing fast path.

        The channel bits sit directly above the line offset, so routing
        needs one divmod rather than a full decode.
        """
        return (phys_addr // self.org.cacheline_bytes) % self.org.channels
