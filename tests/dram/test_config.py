"""Unit tests for DRAM configuration objects."""

import pytest

from repro.dram.config import (
    DramOrganization,
    DramTiming,
    PracConfig,
    ddr5_8000b,
    small_test_config,
)


def test_default_config_validates():
    config = ddr5_8000b()
    assert config.timing.tRC == pytest.approx(
        config.timing.tRAS + config.timing.tRP
    )


def test_paper_table3_values():
    timing = ddr5_8000b().timing
    assert timing.tRCD == 16.0
    assert timing.tCL == 16.0
    assert timing.tRP == 36.0      # PRAC-adjusted
    assert timing.tRC == 52.0
    assert timing.tRFC == 410.0
    assert timing.tREFI == 3900.0
    assert timing.tRFMab == 350.0
    assert timing.tABOACT == 180.0


def test_organization_totals():
    org = ddr5_8000b().organization
    assert org.banks_per_rank == 32
    assert org.total_banks == 128
    assert org.rows_per_bank == 128 * 1024
    assert org.columns_per_row == 128


def test_inconsistent_trc_rejected():
    with pytest.raises(ValueError, match="tRC"):
        DramTiming(tRC=50.0).validate()


def test_nonpositive_timing_rejected():
    with pytest.raises(ValueError):
        DramTiming(tCL=0.0).validate()


def test_trefi_must_be_less_than_trefw():
    with pytest.raises(ValueError, match="tREFI"):
        DramTiming(tREFI=1e9).validate()


def test_prac_level_restricted_to_jedec_values():
    for level in (1, 2, 4):
        PracConfig(prac_level=level).validate()
    with pytest.raises(ValueError):
        PracConfig(prac_level=3).validate()


def test_abo_delay_equals_prac_level():
    assert PracConfig(prac_level=4).abo_delay == 4


def test_with_prac_returns_modified_copy():
    base = ddr5_8000b()
    modified = base.with_prac(nbo=512)
    assert modified.prac.nbo == 512
    assert base.prac.nbo == 1024
    assert modified.timing is base.timing


def test_with_timing_and_organization_overrides():
    base = ddr5_8000b()
    assert base.with_timing(tRFMab=130.0).timing.tRFMab == 130.0
    assert base.with_organization(ranks=1).organization.ranks == 1


def test_row_size_must_be_multiple_of_cacheline():
    with pytest.raises(ValueError):
        DramOrganization(row_size_bytes=100).validate()


def test_small_test_config_is_small_and_valid():
    config = small_test_config()
    assert config.organization.total_banks == 4
    assert config.prac.nbo == 64
