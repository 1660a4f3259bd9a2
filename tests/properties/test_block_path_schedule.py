"""The channel-wide block path keeps its exact event schedule.

REF, RFMab bursts, the policies' periodic timers and the controller
wakes around them are where an idle channel spends its time, so their
code is kept lean.  That code may only get cheaper: every scenario
below records each ``Engine.schedule`` call (time, priority, label and
sequence number), the sequence number of each ``Engine.cancel`` call,
``Engine.events_fired`` and every ``RfmRecord`` (time, provenance,
bank and mitigated rows), and compares the sha256 of that record with
a digest pinned here.  The digests were taken from the generic block
path (``max()`` start times, keyword ``schedule_after`` timers, a full
agenda rebuild after every block); a change that adds, drops, moves or
reorders one event, or mitigates a different row, fails the scenario
that exercises it.
"""

import dataclasses
import hashlib
from typing import Any, Callable, Dict, List, Sequence

import pytest

from repro.attacks.probes import RowHammerSender, bank_address
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.config import ddr5_8000b
from repro.mitigations import (
    AboOnlyPolicy,
    AcbRfmPolicy,
    ObfuscationPolicy,
    PerBankRfmPolicy,
    QpracPolicy,
    TpracPolicy,
)

#: TB-Window (ns): not a multiple of tREFI, so TB-RFMs drift across REFs.
TB_WINDOW = 7_072.5
#: A short tREFW, so the counter-reset boundary fires inside each run.
TREFW_NS = 1_000_000.0
#: Default simulated length of a scenario (ns).
RUN_NS = 3_000_000.0


def _config(nbo: int = 1024, reset_on_refresh: bool = True):
    config = ddr5_8000b()
    config = dataclasses.replace(
        config, timing=dataclasses.replace(config.timing, tREFW=TREFW_NS)
    )
    return config.with_prac(nbo=nbo, reset_on_refresh=reset_on_refresh)


def _burst(controller: Any, engine: Engine, at: float) -> None:
    """Sixteen reads over eight banks (hits and conflicts), all at ``at``."""

    def issue() -> None:
        for index in range(16):
            bank = 5 * (index % 8)
            row = 100 + index % 3
            controller.enqueue(
                MemRequest(phys_addr=bank_address(controller, bank, row), core_id=1)
            )

    engine.schedule(at, issue, label="burst")


def _hammer(controller: MemoryController, engine: Engine, at: float, acts: int) -> None:
    """A dependent conflict chain raising two rows of bank 3 to ``acts``."""
    sender = RowHammerSender(controller, bank=3)
    engine.schedule(
        at, lambda: sender.hammer(10, target_acts=acts, decoy_row=11), label="hammer"
    )


def _channel(
    policy: Any,
    config: Any = None,
    tref_per_trefi: float = 0.0,
    hammer_acts: int = 200,
    run_ns: float = RUN_NS,
) -> Callable[[], List[MemoryController]]:
    """One controller: an idle channel with a request burst and a hammer."""

    def run() -> List[MemoryController]:
        engine = Engine()
        controller = MemoryController(
            engine,
            config if config is not None else _config(),
            policy=policy(),
            tref_per_trefi=tref_per_trefi,
        )
        _burst(controller, engine, at=run_ns / 3 + 0.5)
        _burst(controller, engine, at=2 * run_ns / 3 + 211.0)
        if hammer_acts:
            _hammer(controller, engine, at=run_ns / 6, acts=hammer_acts)
        engine.run(until=run_ns)
        return [controller]

    return run


def _tprac() -> TpracPolicy:
    return TpracPolicy(tb_window=TB_WINDOW)


SCENARIOS: Dict[str, Callable[[], Sequence[MemoryController]]] = {
    "tprac_idle": _channel(_tprac, hammer_acts=0),
    "tprac_hammer": _channel(_tprac),
    "tprac_tref_quarter": _channel(_tprac, tref_per_trefi=0.25),
    "tprac_tref_one": _channel(_tprac, tref_per_trefi=1.0),
    "tprac_no_reset": _channel(_tprac, config=_config(reset_on_refresh=False)),
    "rfmpb": _channel(
        lambda: PerBankRfmPolicy(tb_window=TB_WINDOW), run_ns=400_000.0
    ),
    "obfuscation": _channel(
        lambda: ObfuscationPolicy(seed=3), config=_config(nbo=48)
    ),
    "qprac": _channel(QpracPolicy, config=_config(nbo=48)),
    "abo_acb": _channel(lambda: AcbRfmPolicy(bat=48), config=_config(nbo=32)),
    "abo_only": _channel(AboOnlyPolicy, config=_config(nbo=32)),
}

#: sha256 of each scenario's record (see the module docstring).
DIGESTS = {
    "tprac_idle": "9708ac20b9b95e0219a1a37eee93f6644e72adee2dafefcb14b2d1e3ababcee6",
    "tprac_hammer": "2f18a4b6e3e3f717e26c6ab79feea0163e38c0ba0bfdccce58f33a6668e3fb4f",
    "tprac_tref_quarter": "efb61c48e68c8922f1739820d82d5aeb4c397dbab05397a555fb42bcf502fadf",
    "tprac_tref_one": "013c1b2d6cc782ed233905f2e8a61ef6202bc95a158d596b219465dd3485e7ab",
    "tprac_no_reset": "e40e2d608037829a7c96ba6e81587d13775bb865415f0e1390f3a5a1faaa28d6",
    "rfmpb": "fb2960af01b2c0274615a1f437c740c9bcd1273c798e7a311644e185dbb11d8a",
    "obfuscation": "8d675b8eaf0de43f0fbd1b3a6f40e487056fabde12914ec58aaace4cb300ce3e",
    "qprac": "c9924d0f06b26f20efdb2ce8c6bd526b557d6fcdd44a149f835c632ff154b532",
    "abo_acb": "b62757babce84fa64c21505311c31306e0c3bbf1930c8a9045767e2e5e3fb5cc",
    "abo_only": "d95a46ec41fd480f9e62582c39886248674a0c74ed80c0ee418602db9d39a6b6",
}


def schedule_record(scenario: Callable[[], Sequence[MemoryController]]) -> List[Any]:
    """Run ``scenario`` with ``Engine.schedule``/``cancel`` recorded."""
    record: List[Any] = []
    schedule = Engine.schedule
    cancel = Engine.cancel

    def recorded_schedule(engine, time, callback, priority=0, label=""):
        event = schedule(engine, time, callback, priority, label)
        record.append(("schedule", time, priority, label, event[2]))
        return event

    def recorded_cancel(engine, event):
        record.append(("cancel", event[2]))
        cancel(engine, event)

    Engine.schedule = recorded_schedule
    Engine.cancel = recorded_cancel
    try:
        controllers = scenario()
    finally:
        Engine.schedule = schedule
        Engine.cancel = cancel
    engines = {id(c.engine): c.engine for c in controllers}
    record.append(("events_fired", sum(e.events_fired for e in engines.values())))
    for channel, controller in enumerate(controllers):
        for rfm in controller.stats.rfm_records:
            record.append((
                "rfm", channel, rfm.time, rfm.provenance.value, rfm.bank_id,
                tuple(rfm.mitigated_rows.items()),
            ))
    return record


def digest(record: List[Any]) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_block_path_schedule_is_pinned(name):
    assert digest(schedule_record(SCENARIOS[name])) == DIGESTS[name]


def test_scenarios_exercise_every_rfm_kind():
    """The pins cover TB RFMs that mitigate rows (some skipped for a
    TREF), ACB, ABO, random and per-bank RFMs; a TREF at every REF
    skips every TB-RFM."""
    def rfms(name):
        record = schedule_record(SCENARIOS[name])
        return [entry[3:] for entry in record if entry[0] == "rfm"]

    def kinds(name):
        return {kind for kind, _bank, _rows in rfms(name)}

    tb = rfms("tprac_hammer")
    assert any(rows for _kind, _bank, rows in tb)
    assert 0 < len(rfms("tprac_tref_quarter")) < len(tb)
    assert rfms("tprac_tref_one") == []
    assert kinds("abo_acb") == {"acb", "abo"}
    assert kinds("obfuscation") == {"random", "abo"}
    assert kinds("abo_only") == {"abo"}
    assert kinds("qprac") == {"abo"}
    per_bank = rfms("rfmpb")
    assert {kind for kind, _bank, _rows in per_bank} == {"tb"}
    assert {bank for _kind, bank, _rows in per_bank} == set(range(128))
