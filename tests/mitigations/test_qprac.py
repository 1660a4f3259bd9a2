"""Tests for the QPRAC-style base policy."""


from repro.attacks.probes import bank_address
from repro.controller.controller import MemoryController
from repro.controller.request import MemRequest
from repro.core.engine import Engine
from repro.dram.commands import RfmProvenance
from repro.dram.config import small_test_config
from repro.mitigations import make_policy
from repro.mitigations.qprac import QpracPolicy
from repro.mitigations.tprac import TpracPolicy
from repro.prac.mitigation_queue import PriorityMitigationQueue


def _drive(mc, rows, count, bank=0):
    state = {"n": 0}

    def issue(req=None):
        if state["n"] >= count:
            return
        row = rows[state["n"] % len(rows)]
        state["n"] += 1
        mc.enqueue(MemRequest(phys_addr=bank_address(mc, bank, row), on_complete=issue))

    issue()
    mc.engine.run(until=200_000_000)


def test_factory_includes_qprac():
    assert isinstance(make_policy("qprac"), QpracPolicy)


def test_proactive_servicing_on_refresh():
    config = small_test_config(nbo=100_000).with_prac(nbo=100_000)
    policy = QpracPolicy()
    mc = MemoryController(Engine(), config, policy=policy, enable_refresh=True)
    _drive(mc, rows=[1, 2, 3], count=30)
    mc.engine.run(until=3 * config.timing.tREFI)
    assert policy.proactive_mitigations >= 1
    # Serviced rows had their counters reset without any RFM.
    assert mc.stats.rfm_count() == 0


def test_proactive_servicing_reduces_alerts():
    nbo = 48
    config = small_test_config(nbo=nbo).with_prac(nbo=nbo, abo_act=0)

    class ReactiveQprac(QpracPolicy):
        """QPRAC without the refresh-slack servicing."""

        def on_attached(self, controller):
            pass

    def alerts(policy) -> int:
        mc = MemoryController(Engine(), config, policy=policy, enable_refresh=True)
        _drive(mc, rows=[1, 2], count=400)
        return mc.abo.alert_count

    assert alerts(QpracPolicy()) < alerts(ReactiveQprac())


def test_priority_queues_installed_per_bank():
    config = small_test_config()
    policy = QpracPolicy()
    MemoryController(Engine(), config, policy=policy, enable_refresh=False)
    assert len(policy.queues) == config.organization.banks_per_channel
    assert all(isinstance(q, PriorityMitigationQueue) for q in policy.queues)


def test_tprac_composes_with_qprac_queue():
    """Section 4.1: TB-RFM is compatible with QPRAC-style queues."""
    config = small_test_config(nbo=64).with_prac(nbo=64, abo_act=0)

    class PriorityTprac(TpracPolicy):
        queue_class = PriorityMitigationQueue

    policy = PriorityTprac(tb_window=1500.0)
    mc = MemoryController(Engine(), config, policy=policy, enable_refresh=False)
    _drive(mc, rows=[1, 2], count=400)
    assert mc.abo.alert_count == 0
    assert mc.stats.rfm_count(RfmProvenance.TB) > 0
