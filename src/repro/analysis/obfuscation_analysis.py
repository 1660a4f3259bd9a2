"""Residual leakage under the obfuscation defense (Section 7.1).

Random-RFM injection with probability ``p`` per tREFI makes the RFM
count over an observation window a Binomial(n, p) variable; the
attacker's signal (one or more activity-dependent RFMs) shifts that
distribution by the signal count.  The paper observes the defense is a
trade-off rather than a fix: zero observed RFMs definitively indicates
Bit-0, counts far above the injection baseline indicate Bit-1, and
only the overlap region is ambiguous.

This module quantifies that overlap: the total-variation distance
between the Bit-0 and Bit-1 count distributions, and the accuracy of
the optimal (likelihood-ratio) single-window classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List


def _binomial_pmf(n: int, p: float, k: int) -> float:
    if not 0 <= k <= n:
        return 0.0
    log_coeff = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )
    if p in (0.0, 1.0):
        return float((p == 0.0 and k == 0) or (p == 1.0 and k == n))
    return math.exp(log_coeff + k * math.log(p) + (n - k) * math.log(1 - p))


@dataclass(frozen=True)
class ObfuscationLeakage:
    """Distinguishability of Bit-0 vs Bit-1 under random RFM injection."""

    windows: int              # observation slots (tREFIs) per decision
    inject_prob: float
    signal_rfms: int          # activity-dependent RFMs added by Bit-1
    total_variation: float    # 0 = indistinguishable, 1 = fully separable
    classifier_accuracy: float  # optimal single-shot accuracy (0.5..1.0)


def analyze(
    windows: int = 64,
    inject_prob: float = 0.5,
    signal_rfms: int = 1,
) -> ObfuscationLeakage:
    """Compute distinguishability for one observation setting.

    Bit-0: counts ~ Binomial(windows, p).  Bit-1: the same plus
    ``signal_rfms`` deterministic RFMs (the ABO the sender triggers).
    """
    if windows <= 0:
        raise ValueError("windows must be positive")
    if signal_rfms < 0:
        raise ValueError("signal_rfms must be non-negative")
    max_count = windows + signal_rfms
    pmf0 = [_binomial_pmf(windows, inject_prob, k) for k in range(max_count + 1)]
    pmf1 = [0.0] * (max_count + 1)
    for k in range(windows + 1):
        pmf1[k + signal_rfms] += _binomial_pmf(windows, inject_prob, k)
    tv = 0.5 * sum(abs(a - b) for a, b in zip(pmf0, pmf1))
    # Optimal classifier picks the likelier hypothesis per count.
    accuracy = 0.5 * sum(max(a, b) for a, b in zip(pmf0, pmf1))
    return ObfuscationLeakage(
        windows=windows,
        inject_prob=inject_prob,
        signal_rfms=signal_rfms,
        total_variation=tv,
        classifier_accuracy=accuracy,
    )


def sweep_injection_rates(
    rates: List[float],
    windows: int = 64,
    signal_rfms: int = 1,
) -> List[ObfuscationLeakage]:
    """Security/performance trade-off curve across injection rates."""
    return [analyze(windows, rate, signal_rfms) for rate in rates]
