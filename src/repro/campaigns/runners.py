"""Per-kind trial implementations behind the campaign engine.

:func:`run_trial` maps one (:class:`Scenario`, seed) pair onto the
repository's simulators and returns a flat ``{metric: number}`` dict:

* ``perf`` — no attacker: the scenario's workload runs under the named
  mitigation vs the PRAC-without-ABO baseline, both built by
  :func:`repro.experiments.common.build_system`; the metric is the
  paper's normalized-performance figure of merit.
* ``covert_activity`` / ``covert_count`` — the PRACLeak covert
  channels on the scenario's device, run against the named mitigation
  (the channel builds it with the trial seed) with a seeded message
  and, with a workload, ``noise_accesses`` background requests as
  scheduling noise.
* ``aes_side_channel`` — the AES T-table key-recovery attack with a
  seeded key on the scenario's device; ``mitigation`` selects
  undefended (``abo_only``) or ``tprac`` (:meth:`Scenario.validate`
  rejects any other, and any background workload).
* ``feinting`` — the executed worst-case Feinting attack against
  TPRAC on the attack's own small device; checks the analytical bound
  holds (:meth:`Scenario.validate` rejects any other device, PRAC
  level or workload).
* ``selftest`` — a microsecond-scale deterministic kind used by smoke
  grids and the fault-isolation tests; ``crash_seeds`` makes chosen
  trials raise, so campaigns can prove their per-trial isolation.

Every kind derives all randomness from the trial seed, so a scenario
trial is bit-for-bit reproducible in any worker process.
"""

from __future__ import annotations

import random
import zlib
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import MemoryController
    from repro.core.engine import Engine
    from repro.cpu.system import System

from repro.campaigns.scenario import NO_WORKLOAD, Scenario

TrialFn = Callable[[Scenario, int], Dict[str, float]]

_TRIAL_KINDS: Dict[str, TrialFn] = {}

#: Every ``params`` key some trial kind below reads.  A grid axis that
#: is neither a scenario field nor one of these is rejected by
#: :func:`repro.campaigns.grid.expand_grid`: as a param no trial reads,
#: it would repeat one simulation under new scenario IDs.
TRIAL_PARAMS = frozenset({
    "cores",
    "requests_per_core",
    "noise_accesses",
    "symbols",
    "encryptions",
    "target_byte",
    "fixed_value",
    "pool_size",
    "crash_seeds",
})

#: Directory (str path) that perf trials export per-trial telemetry
#: into when the scenario carries the ``trace``/``metrics`` axes.  Set
#: by the campaign worker (:func:`repro.campaigns.trials._execute_trial`)
#: around each trial; a module global because the ``(scenario, seed) ->
#: metrics`` trial signature is the reproducibility contract.
telemetry_dir: Optional[str] = None


def _kind(name: str) -> Callable[[TrialFn], TrialFn]:
    def register(fn: TrialFn) -> TrialFn:
        _TRIAL_KINDS[name] = fn
        return fn
    return register


def run_trial(scenario: Scenario, seed: int) -> Dict[str, float]:
    """Run one seeded Monte Carlo trial; returns numeric metrics."""
    scenario.validate()
    return _TRIAL_KINDS[scenario.attack](scenario, seed)


# ----------------------------------------------------------------------
# perf: mitigation overhead on a workload (no attacker)
# ----------------------------------------------------------------------
@_kind("perf")
def _perf_trial(scenario: Scenario, seed: int) -> Dict[str, float]:
    from repro.experiments.common import DesignPoint, build_system
    from repro.workloads.synthetic import homogeneous_traces

    params = scenario.params
    cores = int(params.get("cores", 2))
    requests = int(params.get("requests_per_core", 600))
    traces = homogeneous_traces(
        scenario.workload, cores=cores, num_accesses=requests, seed=seed
    )
    config = scenario.dram_config()

    def build(design: str) -> "System":
        return build_system(
            DesignPoint(design, scenario.nbo, prac_level=scenario.prac_level),
            traces,
            config=config,
            system=scenario.system_config(),
            seed=seed,
        )

    baseline = build("none").run()
    mitigated_system = build(scenario.mitigation)
    mitigated = mitigated_system.run()
    controller = mitigated_system.controller
    if telemetry_dir is not None and (
        controller.recorder is not None or controller.sampler is not None
    ):
        from repro.obs.export import export_system_telemetry

        export_system_telemetry(
            controller,
            telemetry_dir,
            stem=f"{scenario.scenario_id}-s{seed}",
            meta={"scenario": scenario.label, "seed": seed},
        )
    return {
        "normalized_perf": mitigated.total_ipc / baseline.total_ipc,
        "ipc": mitigated.total_ipc,
        "baseline_ipc": baseline.total_ipc,
        "rfms": float(mitigated.rfm_total),
    }


# ----------------------------------------------------------------------
# Covert channels (optionally with background workload noise)
# ----------------------------------------------------------------------
def _covert_noise_setup(
    scenario: Scenario, seed: int, total_ns: float
) -> Optional[Callable[["Engine", "MemoryController"], None]]:
    """A ``run(setup=...)`` hook scheduling workload requests as noise,
    or None when the scenario carries no background workload
    (:meth:`Scenario.validate` rejects ``noise_accesses`` there, and a
    count below 1 anywhere)."""
    if scenario.workload == NO_WORKLOAD:
        return None
    accesses = int(scenario.params.get("noise_accesses", 200))

    def setup(engine: "Engine", controller: "MemoryController") -> None:
        from repro.controller.request import MemRequest
        from repro.workloads.catalog import get_workload
        from repro.workloads.synthetic import SyntheticWorkload

        spec = get_workload(scenario.workload)
        # core_offset pushes the noise footprint away from the attack rows.
        trace = SyntheticWorkload(spec, seed=seed, core_offset=8).generate(
            accesses
        )
        spacing = total_ns / (accesses + 1)
        for index, record in enumerate(trace):
            engine.schedule(
                (index + 1) * spacing,
                lambda r=record: controller.enqueue(
                    MemRequest(
                        phys_addr=r.phys_addr, is_write=r.is_write, core_id=3
                    )
                ),
                label="workload-noise",
            )

    return setup


def _covert_metrics(result: Any) -> Dict[str, float]:
    return {
        "error_rate": result.error_rate,
        "bitrate_kbps": result.bitrate_kbps,
        "period_us": result.period_us,
        "symbols": float(result.symbols),
    }


@_kind("covert_activity")
def _covert_activity_trial(scenario: Scenario, seed: int) -> Dict[str, float]:
    from repro.attacks.covert import ActivityChannel

    rng = random.Random(seed)
    symbols = int(scenario.params.get("symbols", 8))
    channel = ActivityChannel(
        message=[rng.randrange(2) for _ in range(symbols)],
        nbo=scenario.nbo,
        mitigation=scenario.mitigation,
        seed=seed,
        config=scenario.dram_config().with_prac(abo_act=0),
    )
    setup = _covert_noise_setup(scenario, seed, symbols * channel.window_ns)
    return _covert_metrics(channel.run(setup=setup))


@_kind("covert_count")
def _covert_count_trial(scenario: Scenario, seed: int) -> Dict[str, float]:
    from repro.attacks.covert import ActivationCountChannel

    rng = random.Random(seed)
    symbols = int(scenario.params.get("symbols", 4))
    channel = ActivationCountChannel(
        values=[rng.randrange(scenario.nbo) for _ in range(symbols)],
        nbo=scenario.nbo,
        mitigation=scenario.mitigation,
        seed=seed,
        config=scenario.dram_config().with_prac(abo_act=0),
    )
    setup = _covert_noise_setup(scenario, seed, symbols * channel.window_ns)
    return _covert_metrics(channel.run(setup=setup))


# ----------------------------------------------------------------------
# AES side channel
# ----------------------------------------------------------------------
@_kind("aes_side_channel")
def _aes_trial(scenario: Scenario, seed: int) -> Dict[str, float]:
    from repro.attacks.side_channel import AesSideChannelAttack

    rng = random.Random(seed)
    key = bytes(rng.randrange(256) for _ in range(16))
    attack = AesSideChannelAttack(
        key,
        nbo=scenario.nbo,
        prac_level=scenario.prac_level,
        encryptions=int(scenario.params.get("encryptions", 150)),
        defense="tprac" if scenario.mitigation == "tprac" else None,
        seed=seed,
        config=scenario.dram_config(),
    )
    result = attack.run_single(
        int(scenario.params.get("target_byte", 0)),
        int(scenario.params.get("fixed_value", 0)),
    )
    return {
        "success": 1.0 if result.success else 0.0,
        "recovered": 0.0 if result.recovered_nibble is None else 1.0,
        "attacker_acts_on_trigger": float(result.attacker_acts_on_trigger),
    }


# ----------------------------------------------------------------------
# Executed Feinting attack
# ----------------------------------------------------------------------
@_kind("feinting")
def _feinting_trial(scenario: Scenario, seed: int) -> Dict[str, float]:
    from repro.attacks.feinting_sim import FeintingAttack

    result = FeintingAttack(
        pool_size=int(scenario.params.get("pool_size", 16)),
        nbo=scenario.nbo,
    ).run()
    return {
        "defense_held": 1.0 if result.defense_held else 0.0,
        "within_bound": 1.0 if result.within_bound else 0.0,
        "target_peak": float(result.target_peak),
        "alerts": float(result.alerts),
    }


# ----------------------------------------------------------------------
# selftest: deterministic, microsecond-scale, crashable on demand
# ----------------------------------------------------------------------
def _crash_seeds(raw: Any) -> List[int]:
    if raw is None:
        return []
    if isinstance(raw, (list, tuple)):
        return [int(v) for v in raw]
    if isinstance(raw, str):
        return [int(v) for v in raw.split("+") if v]
    return [int(raw)]


@_kind("selftest")
def _selftest_trial(scenario: Scenario, seed: int) -> Dict[str, float]:
    if seed in _crash_seeds(scenario.params.get("crash_seeds")):
        raise RuntimeError(f"injected selftest crash (seed {seed})")
    rng = random.Random(
        seed * 1_000_003 + zlib.crc32(scenario.scenario_id.encode())
    )
    return {"value": rng.random()}
