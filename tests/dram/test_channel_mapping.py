"""Property tests for channel-interleaved address mapping.

The multi-channel contract the MOP mapping must honour:

* exact decode/encode round trips for every channel count;
* channel bits sit directly above the cache-line offset, so
  consecutive cache lines stripe across all channels (MOP keeps the
  channel bits *below* the MOP block);
* ``channel_of`` (the request-routing fast path) agrees with the full
  decode;
* ``channels=1`` decodes exactly as the historical single-channel
  mapping did.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.address import MopMapping
from repro.dram.config import ddr5_8000b

CHANNEL_COUNTS = (1, 2, 4)


def _org(channels):
    return ddr5_8000b().with_organization(channels=channels).organization


@pytest.mark.parametrize("channels", CHANNEL_COUNTS)
@settings(max_examples=150, deadline=None)
@given(line=st.integers(min_value=0, max_value=2**30))
def test_roundtrip_across_channel_counts(channels, line):
    mapping = MopMapping(_org(channels))
    phys = line * 64
    addr = mapping.decode(phys)
    assert mapping.encode(addr) == phys
    assert 0 <= addr.channel < channels


@pytest.mark.parametrize("channels", CHANNEL_COUNTS)
@settings(max_examples=150, deadline=None)
@given(line=st.integers(min_value=0, max_value=2**30))
def test_channel_of_agrees_with_decode(channels, line):
    mapping = MopMapping(_org(channels))
    phys = line * 64
    assert mapping.channel_of(phys) == mapping.decode(phys).channel


@pytest.mark.parametrize("channels", (2, 4))
def test_consecutive_cache_lines_stripe_across_channels(channels):
    mapping = MopMapping(_org(channels))
    decoded = [mapping.decode(i * 64) for i in range(4 * channels)]
    # Any window of `channels` consecutive lines covers every channel —
    # in particular consecutive lines always land on distinct channels.
    for start in range(len(decoded) - channels + 1):
        window = decoded[start:start + channels]
        assert {a.channel for a in window} == set(range(channels))


@pytest.mark.parametrize("channels", (2, 4))
def test_mop_channel_bits_sit_below_the_mop_block(channels):
    """One MOP block's lines split evenly across channels, and the
    non-channel coordinates advance exactly as in the 1-channel layout
    stretched by the channel count."""
    mop_multi = MopMapping(_org(channels))
    mop_single = MopMapping(_org(1))
    for line in range(4 * channels * 3):
        multi = mop_multi.decode(line * 64)
        # Stripping the channel bits reproduces the single-channel decode.
        single = mop_single.decode((line // channels) * 64)
        assert multi._replace(channel=0) == single


def test_single_channel_matches_historical_layout():
    """channels=1 must decode bit-identically to the pre-multi-channel
    mapping (channel contributes zero address bits)."""
    mapping = MopMapping(_org(1))
    for line in (0, 1, 7, 128, 4095, 2**20 + 3):
        addr = mapping.decode(line * 64)
        assert addr.channel == 0
        assert mapping.encode(addr) == line * 64


@pytest.mark.parametrize("channels", CHANNEL_COUNTS)
def test_capacity_scales_with_channels(channels):
    org = _org(channels)
    assert org.total_banks == channels * org.banks_per_channel
