"""Per-kind trial implementations behind the campaign engine.

:func:`run_trial` maps one (:class:`Scenario`, seed) pair onto the
repository's simulators and returns a flat ``{metric: number}`` dict:

* ``perf`` — no attacker: the scenario's workload runs under the named
  mitigation vs the PRAC-without-ABO baseline, both built by
  :func:`repro.experiments.common.build_system`; the metric is the
  paper's normalized-performance figure of merit.  With the
  ``channels`` axis > 1 the systems run the full multi-channel memory
  model (one controller + policy instance per channel) and the metrics
  gain per-channel ``requests_chN`` / ``rfms_chN`` breakdowns; the
  ``scheduler`` / ``mapping`` / ``refresh`` axes pick the registered
  controller components for baseline and mitigated systems alike.
* ``covert_activity`` / ``covert_count`` — the PRACLeak covert
  channels, run against the named mitigation (the registry policy is
  injected into the channel's controller) with a seeded message and,
  optionally, background workload traffic as scheduling noise.
* ``aes_side_channel`` — the AES T-table key-recovery attack with a
  seeded key; ``mitigation`` selects undefended (ABO-Only) vs TPRAC.
* ``feinting`` — the executed worst-case Feinting attack against
  TPRAC; checks the analytical bound holds.
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
from repro.mitigations import policy_factory

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
    "threshold_ns",
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
    memory = mitigated_system.memory
    if telemetry_dir is not None and (
        memory.recorder is not None or memory.sampler is not None
    ):
        from repro.obs.export import export_system_telemetry

        export_system_telemetry(
            memory,
            telemetry_dir,
            stem=f"{scenario.scenario_id}-s{seed}",
            meta={"scenario": scenario.label, "seed": seed},
            hierarchy=mitigated_system.hierarchy,
        )
    metrics = {
        "normalized_perf": mitigated.total_ipc / baseline.total_ipc,
        "ipc": mitigated.total_ipc,
        "baseline_ipc": baseline.total_ipc,
        "rfms": float(mitigated.rfm_total),
    }
    if config.organization.channels > 1:
        for slice_ in mitigated.per_channel:
            metrics[f"rfms_ch{slice_.channel}"] = float(slice_.rfms)
            metrics[f"requests_ch{slice_.channel}"] = float(slice_.requests)
    # The cache / interconnect axes surface their counters as metrics,
    # so sweeps see hit-rate and occupancy next to normalized perf.
    if mitigated.cache is not None:
        cache = mitigated.cache
        metrics["l1_hit_rate"] = cache["l1"]["hit_rate"]
        metrics["l2_hit_rate"] = cache["l2"]["hit_rate"]
        metrics["cache_writebacks"] = float(cache["dram_writebacks"])
        metrics["mshr_merges"] = float(cache["mshr_merges"])
        metrics["mshr_stalls"] = float(cache["mshr_stalls"])
    if mitigated.interconnect is not None:
        icn = mitigated.interconnect
        metrics["interconnect_transfers"] = float(icn["transfers"])
        metrics["interconnect_queued"] = float(icn["queued"])
        metrics["interconnect_occupancy"] = icn["occupancy"]
    return metrics


# ----------------------------------------------------------------------
# Covert channels (optionally with background workload noise)
# ----------------------------------------------------------------------
def _covert_noise_setup(
    scenario: Scenario, seed: int, total_ns: float
) -> Optional[Callable[["Engine", "MemoryController"], None]]:
    """A ``run(setup=...)`` hook scheduling workload requests as noise,
    or None when the scenario carries no background workload."""
    accesses = int(scenario.params.get("noise_accesses", 200))
    if scenario.workload == NO_WORKLOAD or accesses <= 0:
        return None

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
    config = scenario.dram_config().with_prac(abo_act=0)
    channel = ActivityChannel(
        nbo=scenario.nbo,
        prac_level=scenario.prac_level,
        message=[rng.randrange(2) for _ in range(symbols)],
        config=config,
        policy_factory=policy_factory(scenario.mitigation, config, seed=seed),
    )
    setup = _covert_noise_setup(scenario, seed, symbols * channel.window_ns)
    return _covert_metrics(channel.run(setup=setup))


@_kind("covert_count")
def _covert_count_trial(scenario: Scenario, seed: int) -> Dict[str, float]:
    from repro.attacks.covert import ActivationCountChannel

    rng = random.Random(seed)
    symbols = int(scenario.params.get("symbols", 4))
    config = scenario.dram_config().with_prac(abo_act=0)
    channel = ActivationCountChannel(
        nbo=scenario.nbo,
        prac_level=scenario.prac_level,
        values=[rng.randrange(scenario.nbo) for _ in range(symbols)],
        config=config,
        policy_factory=policy_factory(scenario.mitigation, config, seed=seed),
    )
    setup = _covert_noise_setup(scenario, seed, symbols * channel.window_ns)
    return _covert_metrics(channel.run(setup=setup))


# ----------------------------------------------------------------------
# AES side channel
# ----------------------------------------------------------------------
@_kind("aes_side_channel")
def _aes_trial(scenario: Scenario, seed: int) -> Dict[str, float]:
    from repro.attacks.side_channel import AesSideChannelAttack

    defense_by_mitigation: Dict[str, Optional[str]] = {
        "none": None,
        "abo_only": None,
        "tprac": "tprac",
    }
    if scenario.mitigation not in defense_by_mitigation:
        raise ValueError(
            "aes_side_channel supports mitigation in "
            f"{sorted(defense_by_mitigation)}, not {scenario.mitigation!r}"
        )
    rng = random.Random(seed)
    key = bytes(rng.randrange(256) for _ in range(16))
    attack = AesSideChannelAttack(
        key,
        nbo=scenario.nbo,
        prac_level=scenario.prac_level,
        encryptions=int(scenario.params.get("encryptions", 150)),
        defense=defense_by_mitigation[scenario.mitigation],
        seed=seed,
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
# Eviction-set covert channel through the shared L2
# ----------------------------------------------------------------------
@_kind("eviction_set")
def _eviction_set_trial(scenario: Scenario, seed: int) -> Dict[str, float]:
    """Prime+probe over the shared L2 of the cache hierarchy.

    Core 0 (victim) keeps one line resident; core 1 (attacker) transmits
    a 1 by walking an eviction set — ``l2_ways + 2`` lines that map to
    the victim's L2 set — and a 0 by staying idle.  Between symbols the
    victim self-evicts its private-L1 copy (conflicting same-L1-set
    lines), then re-probes and times the access: above
    ``threshold_ns`` means the line came from DRAM, i.e. the attacker
    spoke.  Every address is derived arithmetically from the seeded RNG
    via the cache's own set/tag geometry, so the trial exercises
    set-index round-tripping end to end.
    """
    from repro.controller.memory_system import MemorySystem
    from repro.controller.request import MemRequest
    from repro.core.engine import Engine

    rng = random.Random(seed)
    params = scenario.params
    symbols = int(params.get("symbols", 16))
    message = [rng.randrange(2) for _ in range(symbols)]
    sysconf = scenario.system_config().validate()
    config = scenario.dram_config()
    engine = Engine()
    memory = MemorySystem(
        engine,
        config,
        policy_factory=policy_factory(scenario.mitigation, config, seed=seed),
        enable_refresh=False,
        system=sysconf,
    )
    interconnect = sysconf.make_interconnect()
    hierarchy = sysconf.make_cache(
        engine, memory, num_cores=2, interconnect=interconnect
    )
    assert hierarchy is not None  # validate() enforced cache != "none"
    l1, l2 = hierarchy.l1s[0], hierarchy.l2
    threshold = float(
        params.get(
            "threshold_ns",
            hierarchy.l1_latency_ns + 2 * hierarchy.l2_latency_ns + 10.0,
        )
    )
    # Victim line plus an eviction set: distinct tags, same L2 set.
    l2_set = rng.randrange(l2.num_sets)
    victim_tag = rng.randrange(256)
    victim_addr = l2.line_addr(l2_set, victim_tag)
    eviction_addrs = [
        l2.line_addr(l2_set, victim_tag + 1 + i) for i in range(l2.ways + 2)
    ]
    # L1 self-eviction fillers: same L1 set as the victim line, but
    # kept out of the victim's L2 set so they never evict it themselves.
    victim_line = victim_addr // l1.line_bytes
    fillers: List[int] = []
    step = l1.num_sets
    line = victim_line + step
    while len(fillers) < l1.ways + 1:
        if line % l2.num_sets != l2_set:
            fillers.append(line * l1.line_bytes)
        line += step

    steps: List[Any] = []
    for bit in message:
        steps.append(("access", victim_addr, 0, None))
        if bit:
            for addr in eviction_addrs:
                steps.append(("access", addr, 1, None))
        for addr in fillers:
            steps.append(("access", addr, 0, None))
        steps.append(("probe", victim_addr, 0, bit))
    stepper = iter(steps)
    decoded: List[int] = []
    probe_latency_total = [0.0]

    def advance() -> None:
        try:
            kind, addr, core, _bit = next(stepper)
        except StopIteration:
            engine.request_stop()
            return
        start = engine.now

        def done(req: Any, kind: str = kind, start: float = start) -> None:
            if kind == "probe":
                latency = engine.now - start
                probe_latency_total[0] += latency
                decoded.append(1 if latency > threshold else 0)
            engine.schedule(engine.now, advance, 0, "evset")

        hierarchy.enqueue(
            MemRequest(phys_addr=addr, core_id=core, on_complete=done)
        )

    engine.schedule(0.0, advance, 0, "evset")
    engine.run(max_events=5_000_000)
    errors = sum(1 for got, sent in zip(decoded, message) if got != sent)
    elapsed_ns = engine.now
    metrics = {
        "error_rate": errors / symbols if symbols else 0.0,
        "symbols": float(symbols),
        "bitrate_kbps": (
            symbols / elapsed_ns * 1e6 if elapsed_ns > 0 else 0.0
        ),
        "mean_probe_ns": (
            probe_latency_total[0] / len(decoded) if decoded else 0.0
        ),
        "l2_hit_rate": l2.stats.hit_rate,
        "dram_reads": float(hierarchy.dram_reads),
        "cache_writebacks": float(hierarchy.dram_writebacks),
    }
    if interconnect is not None:
        metrics["interconnect_occupancy"] = interconnect.occupancy(elapsed_ns)
    return metrics


# ----------------------------------------------------------------------
# Executed Feinting attack
# ----------------------------------------------------------------------
@_kind("feinting")
def _feinting_trial(scenario: Scenario, seed: int) -> Dict[str, float]:
    from repro.attacks.feinting_sim import FeintingAttack

    if scenario.mitigation != "tprac":
        raise ValueError("feinting scenarios attack TPRAC; set mitigation=tprac")
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
