"""Table 2: covert-channel transmission period and bitrate vs N_BO.

Paper values (cross-process, 4 RFMs/ABO):

=====================  =====  ============  =========
channel                N_BO   period (us)   Kbps
=====================  =====  ============  =========
Activity-Based          256      24.1          41.4
Activity-Based          512      46.7          21.4
Activity-Based         1024      91.8          10.9
Activation-Count        256      64.7         123.6
Activation-Count        512     128.0          70.3
Activation-Count       1024     257.6          38.8
=====================  =====  ============  =========

Our dependent-chain attacker activates at the data-return+tRP cadence
(70 ns) rather than tRC, so absolute periods run ~1.5x longer; the
scaling with N_BO and the count-channel's bitrate advantage match.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.attacks.covert import (
    ActivationCountChannel,
    ActivityChannel,
    CovertChannelResult,
)
from repro.experiments.registry import ArtifactSpec


@dataclass
class Table2Row:
    channel: str
    nbo: int
    period_us: float
    bitrate_kbps: float
    error_rate: float


@dataclass
class Table2Result:
    rows: List[Table2Row]

    def format_table(self) -> str:
        """Render the regenerated rows as an aligned text table."""
        lines = ["channel                 N_BO   period(us)   Kbps    err"]
        for row in self.rows:
            lines.append(
                f"{row.channel:22s} {row.nbo:5d}   {row.period_us:9.1f}  "
                f"{row.bitrate_kbps:6.1f}  {row.error_rate:5.3f}"
            )
        return "\n".join(lines)


def run(
    nbo_values: Sequence[int] = (256, 512, 1024),
    activity_bits: int = 16,
    count_symbols: int = 8,
    seed: int = 5,
) -> Table2Result:
    """Run both channels at each N_BO; return measured period/bitrate."""
    rng = random.Random(seed)
    rows: List[Table2Row] = []
    for nbo in nbo_values:
        message = [rng.randrange(2) for _ in range(activity_bits)]
        result = ActivityChannel(nbo=nbo, message=message).run()
        rows.append(_row("Activity-Based", nbo, result))
    for nbo in nbo_values:
        values = [rng.randrange(nbo) for _ in range(count_symbols)]
        result = ActivationCountChannel(nbo=nbo, values=values).run()
        rows.append(_row("Activation-Count-Based", nbo, result))
    return Table2Result(rows=rows)


def _row(channel: str, nbo: int, result: CovertChannelResult) -> Table2Row:
    return Table2Row(
        channel=channel,
        nbo=nbo,
        period_us=result.period_us,
        bitrate_kbps=result.bitrate_kbps,
        error_rate=result.error_rate,
    )


ARTIFACT = ArtifactSpec(
    name="table2",
    artifact="Table 2",
    title="Covert-channel period and bitrate vs N_BO",
    module="repro.experiments.table2_covert",
    quick=dict(nbo_values=(256,), activity_bits=6, count_symbols=4),
)
