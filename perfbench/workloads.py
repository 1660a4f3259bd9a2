"""The benchmark's three pinned workloads.

Each workload is built from the public functions behind one paper
artifact.  ``generate(seed)`` turns the benchmark's seed into the
inputs (traces, keys, messages); ``ops(inputs)`` pins the operations
run on them.  An op is one ``System`` run, one attack instance or one
covert transmission, and every op starts from a cold device: ``build``
constructs a fresh simulated object and ``call`` names the public
function the benchmark times.

``outputs`` extracts an op's simulated results for the output check;
``violations`` lists the invariants those results break (an empty list
means the op passed).  The invariants held on every seed tried while
the benchmark was written.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.analysis.metrics import geometric_mean
from repro.attacks.covert import ActivationCountChannel, ActivityChannel
from repro.attacks.side_channel import AesSideChannelAttack
from repro.experiments.common import DesignPoint, build_system
from repro.workloads import synthetic

DEFAULT_SEED = 0


@dataclass
class Op:
    """One pinned operation of a workload."""

    name: str
    #: constructs the cold-device object the op runs on (untimed)
    build: Callable[[], Any]
    #: returns the public function to time and its arguments
    call: Callable[[Any], Tuple[Callable[..., Any], tuple]]
    #: simulated outputs, from the built object, the call's result and
    #: the memory controllers the op constructed
    outputs: Callable[[Any, Any, List[Any]], Dict[str, Any]]
    #: invariant violations of those outputs
    violations: Callable[[Dict[str, Any]], List[str]]


def rfms_by_provenance(controllers: Sequence[Any]) -> Dict[str, int]:
    """RFM commands issued, counted by why they were issued."""
    counts: Dict[str, int] = {}
    for controller in controllers:
        for record in controller.stats.rfm_records:
            key = record.provenance.value
            counts[key] = counts.get(key, 0) + 1
    return counts


def events_fired(controllers: Sequence[Any]) -> int:
    """Events fired by the engines driving ``controllers``."""
    engines = {id(c.engine): c.engine for c in controllers}
    return sum(engine.events_fired for engine in engines.values())


def _tprac_violations(rfms: Dict[str, int]) -> List[str]:
    problems = []
    if rfms.get("abo", 0):
        problems.append(f"TPRAC issued {rfms['abo']} ABO RFMs")
    if not rfms.get("tb", 0):
        problems.append("TPRAC issued no TB RFMs")
    return problems


class PerfFig10:
    """Figure 10's shape: 4-core homogeneous traces at N_RH=1024."""

    name = "perf_fig10"
    why = (
        "PRAC baseline vs TPRAC on 433.milc (conflict-bound) and 470.lbm "
        "(streaming, write-heavy): the serve loop, scheduler, cores and "
        "engine do the work; REF/RFM is ~0.1%"
    )
    traces = ("433.milc", "470.lbm")
    #: ``none`` is the paper's normalization baseline: PRAC timings
    #: without ABO.
    designs = ("none", "tprac")
    nrh = 1024
    cores = 4
    #: ~25-30 tREFI of simulated time per op
    requests_per_core = 10_000

    def generate(self, seed: int) -> Dict[str, Any]:
        return {
            name: synthetic.homogeneous_traces(
                name, cores=self.cores, num_accesses=self.requests_per_core,
                seed=seed,
            )
            for name in self.traces
        }

    def ops(self, inputs: Dict[str, Any]) -> List[Op]:
        ops = []
        for trace in self.traces:
            for design in self.designs:
                label = "prac" if design == "none" else design
                ops.append(
                    Op(
                        name=f"{trace}/{label}",
                        build=partial(
                            build_system,
                            DesignPoint(design=design, nrh=self.nrh),
                            inputs[trace],
                        ),
                        call=lambda system: (system.run, ()),
                        outputs=self._outputs,
                        violations=partial(self._violations, design),
                    )
                )
        return ops

    @staticmethod
    def _outputs(system: Any, result: Any, controllers: List[Any]) -> Dict[str, Any]:
        return {
            "ipcs": result.ipcs,
            "elapsed_ns": result.elapsed_ns,
            "core_requests": [core.dram_requests for core in system.cores],
            "cores_finished": all(core.finished for core in system.cores),
            "rfms": result.rfm_by_provenance,
            "events": system.engine.events_fired,
        }

    def _violations(self, design: str, out: Dict[str, Any]) -> List[str]:
        problems = []
        budget = [self.requests_per_core] * self.cores
        if not out["cores_finished"] or out["core_requests"] != budget:
            problems.append(f"cores served {out['core_requests']}, budget {budget}")
        if design == "tprac":
            problems += _tprac_violations(out["rfms"])
        return problems

    def headline(self, outputs: Dict[str, Dict[str, Any]]) -> List[str]:
        slowdowns = {}
        for trace in self.traces:
            base = sum(outputs[f"{trace}/prac"]["ipcs"])
            tprac = sum(outputs[f"{trace}/tprac"]["ipcs"])
            slowdowns[trace] = 1.0 - tprac / base
        mean = 1.0 - geometric_mean([1.0 - s for s in slowdowns.values()])
        return [
            _vs_paper("TPRAC slowdown, 433.milc", slowdowns["433.milc"] * 100, 8.3, "%"),
            _vs_paper(
                "TPRAC slowdown, geomean of the 2 traces (paper: all workloads)",
                mean * 100, 3.4, "%",
            ),
        ]


class AesFig9:
    """Figure 9's shape: the PRACLeak AES attack with and without TPRAC."""

    name = "aes_fig9"
    why = (
        "AES T-table attack on one key byte under ABO-Only and TPRAC: "
        "80 ms of a mostly idle channel, so REF/TB-RFM blocking and "
        "per-RFM mitigation do the work"
    )
    key_values = (0, 224)
    defenses = (None, "tprac")
    nbo = 256
    encryptions = 80
    target_byte = 0

    def generate(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(seed)
        return {
            "key": bytes(rng.randrange(256) for _ in range(16)),
            "fixed_plaintext": rng.randrange(256),
            "victim_seed": rng.randrange(1 << 30),
        }

    def ops(self, inputs: Dict[str, Any]) -> List[Op]:
        ops = []
        for defense in self.defenses:
            # As in Figure 5/9's key sweep: one attack per defense solves
            # the TB-Window, and each key value runs as its own instance.
            parent = AesSideChannelAttack(
                inputs["key"], nbo=self.nbo, encryptions=self.encryptions,
                defense=defense, seed=inputs["victim_seed"],
            )
            label = defense or "abo_only"
            for value in self.key_values:
                key = bytearray(inputs["key"])
                key[self.target_byte] = value
                ops.append(
                    Op(
                        name=f"k{self.target_byte}={value}/{label}",
                        build=partial(
                            AesSideChannelAttack,
                            bytes(key),
                            nbo=self.nbo,
                            encryptions=self.encryptions,
                            defense=defense,
                            tb_window=parent.tb_window,
                            seed=parent.seed + value,
                        ),
                        call=partial(self._call, inputs["fixed_plaintext"]),
                        outputs=self._outputs,
                        violations=partial(self._violations, defense),
                    )
                )
        return ops

    def _call(self, fixed: int, attack: Any) -> Tuple[Callable[..., Any], tuple]:
        return attack.run_single, (self.target_byte, fixed)

    @staticmethod
    def _outputs(attack: Any, result: Any, controllers: List[Any]) -> Dict[str, Any]:
        return {
            "true_nibble": result.true_nibble,
            "recovered_nibble": result.recovered_nibble,
            "trigger_row": result.trigger_row,
            "attacker_acts_on_trigger": result.attacker_acts_on_trigger,
            "rfms": rfms_by_provenance(controllers),
            "events": events_fired(controllers),
        }

    @staticmethod
    def _violations(defense: Any, out: Dict[str, Any]) -> List[str]:
        if defense == "tprac":
            return _tprac_violations(out["rfms"])
        if out["recovered_nibble"] != out["true_nibble"]:
            return [
                f"ABO-Only recovered {out['recovered_nibble']}, "
                f"true nibble {out['true_nibble']}"
            ]
        return []

    def headline(self, outputs: Dict[str, Dict[str, Any]]) -> List[str]:
        lines = []
        for defense, paper in ((None, 1.0), ("tprac", 1 / 16)):
            label = defense or "abo_only"
            runs = [out for name, out in outputs.items() if name.endswith("/" + label)]
            rate = sum(o["recovered_nibble"] == o["true_nibble"] for o in runs) / len(runs)
            what = "undefended" if defense is None else "TPRAC (paper: chance, 1/16)"
            lines.append(_vs_paper(f"AES nibble recovery rate, {what}", rate, paper, ""))
        return lines


class CovertTable2:
    """Table 2's shape: both covert channels at N_BO 256/512/1024."""

    name = "covert_table2"
    why = (
        "Activity and activation-count covert channels under ABO-Only: "
        "dependent-chain requests on one or two banks, a latency probe and "
        "alert-driven ABO RFM bursts"
    )
    nbo_values = (256, 512, 1024)
    activity_bits = 16
    count_symbols = 8
    #: Table 2 (cross-process, 4 RFMs per ABO), Kbps
    paper_kbps = {
        ("activity", 256): 41.4, ("activity", 512): 21.4, ("activity", 1024): 10.9,
        ("count", 256): 123.6, ("count", 512): 70.3, ("count", 1024): 38.8,
    }

    def generate(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(seed)
        return {
            "activity": {
                nbo: [rng.randrange(2) for _ in range(self.activity_bits)]
                for nbo in self.nbo_values
            },
            "count": {
                nbo: [rng.randrange(nbo) for _ in range(self.count_symbols)]
                for nbo in self.nbo_values
            },
        }

    def ops(self, inputs: Dict[str, Any]) -> List[Op]:
        ops = []
        for nbo in self.nbo_values:
            ops.append(self._op(
                f"activity/{nbo}",
                partial(ActivityChannel, nbo=nbo, message=inputs["activity"][nbo]),
            ))
        for nbo in self.nbo_values:
            ops.append(self._op(
                f"count/{nbo}",
                partial(ActivationCountChannel, nbo=nbo, values=inputs["count"][nbo]),
            ))
        return ops

    def _op(self, name: str, build: Callable[[], Any]) -> Op:
        return Op(
            name=name,
            build=build,
            call=lambda channel: (channel.run, ()),
            outputs=self._outputs,
            violations=self._violations,
        )

    @staticmethod
    def _outputs(channel: Any, result: Any, controllers: List[Any]) -> Dict[str, Any]:
        return {
            "sent_bits": result.sent_bits,
            "received_bits": result.received_bits,
            "window_ns": result.window_ns,
            "bitrate_kbps": result.bitrate_kbps,
            "rfms": rfms_by_provenance(controllers),
            "events": events_fired(controllers),
        }

    @staticmethod
    def _violations(out: Dict[str, Any]) -> List[str]:
        if out["received_bits"] != out["sent_bits"]:
            return ["ABO-Only covert channel decoded with errors"]
        return []

    def headline(self, outputs: Dict[str, Dict[str, Any]]) -> List[str]:
        return [
            _vs_paper(
                f"{channel} channel Kbps, N_BO={nbo}",
                outputs[f"{channel}/{nbo}"]["bitrate_kbps"], paper, "",
            )
            for (channel, nbo), paper in self.paper_kbps.items()
        ]


def _vs_paper(what: str, model: float, paper: float, unit: str) -> str:
    return (
        f"{what}: model {model:.4g}{unit} vs paper {paper:.4g}{unit} "
        f"(diff {model - paper:+.3g}{unit})"
    )


WORKLOADS = {w.name: w for w in (PerfFig10(), AesFig9(), CovertTable2())}
