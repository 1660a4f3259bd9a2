"""Tests for performance metrics helpers."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import geometric_mean


def test_geometric_mean_basics():
    assert geometric_mean([4.0, 1.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, -1.0])


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20))
def test_geomean_between_min_and_max(values):
    gm = geometric_mean(values)
    assert min(values) - 1e-9 <= gm <= max(values) + 1e-9
