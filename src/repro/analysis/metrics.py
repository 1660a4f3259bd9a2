"""Performance metrics: the geometric mean of normalized performance.

The paper reports each design's performance normalized to the
PRAC-enabled baseline without ABO (values below 1.0 are slowdowns)
and aggregates workloads by their geometric mean.
"""

from __future__ import annotations

import math
from typing import Iterable


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; standard for normalized performance aggregation."""
    values = list(values)
    if not values:
        raise ValueError("need at least one value")
    if any(v <= 0 for v in values):
        raise ValueError("values must be positive")
    return math.exp(sum(math.log(v) for v in values) / len(values))
