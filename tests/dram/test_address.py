"""Unit and property tests for the MOP address mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.address import MOP_WIDTH, DramAddress, MopMapping
from repro.dram.config import DramOrganization, ddr5_8000b

ORG = ddr5_8000b().organization


def test_decode_zero_is_origin():
    addr = MopMapping(ORG).decode(0)
    assert (addr.rank, addr.bank_group, addr.bank, addr.row, addr.column) == (
        0, 0, 0, 0, 0,
    )


def test_mop_stripes_blocks_across_banks():
    mop = MopMapping(ORG)
    lines = [mop.decode(i * 64) for i in range(8)]
    # First 4 lines share a bank; the next block moves banks.
    assert len({(a.bank_group, a.bank) for a in lines[:4]}) == 1
    assert lines[4].bank != lines[0].bank or lines[4].bank_group != lines[0].bank_group


def test_mop_keeps_row_constant_within_stripe_group():
    mop = MopMapping(ORG)
    rows = {mop.decode(i * 64).row for i in range(64)}
    assert rows == {0}


def test_mop_width_must_divide_columns():
    # 384-byte rows hold 6 lines, which no 4-line MOP block divides.
    org = DramOrganization(row_size_bytes=384)
    assert org.columns_per_row % MOP_WIDTH != 0
    with pytest.raises(ValueError, match="must divide"):
        MopMapping(org)


@settings(max_examples=200, deadline=None)
@given(line=st.integers(min_value=0, max_value=2**30))
def test_roundtrip_mop(line):
    mapping = MopMapping(ORG)
    phys = line * 64
    assert mapping.encode(mapping.decode(phys)) == phys


@settings(max_examples=100, deadline=None)
@given(
    rank=st.integers(0, ORG.ranks - 1),
    bank_group=st.integers(0, ORG.bank_groups - 1),
    bank=st.integers(0, ORG.banks_per_group - 1),
    row=st.integers(0, ORG.rows_per_bank - 1),
    column=st.integers(0, ORG.columns_per_row - 1),
)
def test_encode_decode_identity_on_coordinates(rank, bank_group, bank, row, column):
    mapping = MopMapping(ORG)
    addr = DramAddress(
        rank=rank, bank_group=bank_group, bank=bank, row=row, column=column
    )
    assert mapping.decode(mapping.encode(addr)) == addr


def test_flat_bank_is_dense_and_unique():
    seen = set()
    for rank in range(ORG.ranks):
        for bg in range(ORG.bank_groups):
            for bank in range(ORG.banks_per_group):
                addr = DramAddress(rank, bg, bank, 0, 0)
                seen.add(addr.flat_bank(ORG))
    assert seen == set(range(ORG.banks_per_channel))


#: (cache line, its (rank, bank_group, bank, row, column)) as the MOP
#: mapping has always laid the paper's device out.
HISTORICAL_LAYOUT = (
    (0, (0, 0, 0, 0, 0)),
    (1, (0, 0, 0, 0, 1)),
    (7, (0, 0, 1, 0, 3)),
    (128, (1, 0, 0, 0, 0)),
    (4095, (3, 7, 3, 0, 31)),
    (2**20 + 3, (0, 0, 0, 64, 3)),
)


def test_single_channel_matches_historical_layout():
    """The paper's one channel decodes exactly as the mapping always
    has: no address bits select a channel."""
    mapping = MopMapping(ORG)
    for line, coordinates in HISTORICAL_LAYOUT:
        addr = mapping.decode(line * 64)
        assert tuple(addr) == coordinates
        assert mapping.encode(addr) == line * 64
