"""Tests for the workload catalog (paper Table 4)."""

import pytest

from repro.workloads.catalog import (
    CATALOG,
    get_workload,
    workload_names,
)


def test_catalog_has_paper_scale_and_suites():
    assert len(CATALOG) >= 50
    suites = {spec.suite for spec in CATALOG.values()}
    assert suites == {"spec2006", "spec2017", "cloudsuite"}
    assert len(workload_names(suite="cloudsuite")) == 4


def test_rbmpki_matches_category_bounds():
    for spec in CATALOG.values():
        if spec.category == "H":
            assert spec.rbmpki >= 10
        elif spec.category == "M":
            assert 1 <= spec.rbmpki < 10
        else:
            assert spec.rbmpki < 1


def test_key_paper_workloads_present():
    for name in ("433.milc", "429.mcf", "470.lbm", "453.povray", "nutch"):
        assert name in CATALOG


def test_milc_has_lowest_row_locality():
    """433.milc is the paper's worst case via extra row-buffer misses."""
    milc = get_workload("433.milc")
    assert milc.row_locality == min(s.row_locality for s in CATALOG.values())


def test_filters_compose():
    high_2017 = workload_names(category="H", suite="spec2017")
    assert "519.lbm" in high_2017
    assert "433.milc" not in high_2017


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        get_workload("999.mystery")


def test_spec_validation():
    from repro.workloads.catalog import WorkloadSpec

    with pytest.raises(ValueError):
        WorkloadSpec("x", "spec2006", "X", 1.0, 0.5, 10)
    with pytest.raises(ValueError):
        WorkloadSpec("x", "spec2006", "H", 10.0, 1.0, 10)
    with pytest.raises(ValueError):
        WorkloadSpec("x", "spec2006", "H", -1.0, 0.5, 10)
