"""Periodic sim-time sampling of memory-system health metrics.

A :class:`TimeSeriesSampler` rides the engine's event queue
(:meth:`repro.core.engine.Engine.every`) and snapshots, every
``interval_ns`` of *simulation* time, the windowed series that a
perf trial's ``metrics-*.json`` file carries
(:func:`repro.obs.export.export_system_telemetry`):

* ``queue_depth`` — requests waiting in the controller's scheduler
  (instantaneous);
* ``row_hit_rate`` — hits / requests completed inside the window;
* ``bus_occupancy`` — fraction of the window the data bus was busy
  (completed requests × tBL / window);
* ``alerts_per_s`` — ABO alerts inside the window, per simulated
  second;
* ``events_per_wall_s`` — engine events per *wall-clock* second since
  the previous sample (the live throughput gauge; the only wall-clock
  read in the series, and explicitly advisory — it never enters result
  payloads compared for identity).

The controller attaches the sampler only when
``SystemConfig(metrics=True)``: with metrics off, no sampler exists and
the event schedule is untouched.
Export takes one closing sample, so a run shorter than one interval
holds only that; the periodic samples need a run of at least
``interval_ns`` (a perf trial at ``requests_per_core=5000`` lasts about
five).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import MemoryController
    from repro.core.engine import RepeatingTimer

#: metrics-series schema tag (file format identity for readers)
SERIES_SCHEMA = "repro-metrics-v1"

#: default sampling interval: ~2.5 tREFI, a few hundred samples on the
#: pinned perf workloads
DEFAULT_INTERVAL_NS = 10_000.0


class TimeSeriesSampler:
    """Windowed metric series over one :class:`MemoryController` run."""

    def __init__(
        self,
        controller: "MemoryController",
        interval_ns: float = DEFAULT_INTERVAL_NS,
    ) -> None:
        if interval_ns <= 0:
            raise ValueError(f"interval_ns must be positive, got {interval_ns}")
        self.controller = controller
        self.engine = controller.engine
        self.interval_ns = interval_ns
        self.series: Dict[str, List[float]] = {
            "t": [],
            "queue_depth": [],
            "row_hit_rate": [],
            "bus_occupancy": [],
            "alerts_per_s": [],
            "events_per_wall_s": [],
        }
        self._timer: Optional["RepeatingTimer"] = None
        # Window baselines (previous sample's totals)
        self._last_requests = 0
        self._last_hits = 0
        self._last_alerts = 0
        self._last_events = 0
        self._last_wall = time.perf_counter()
        self._tBL = controller.config.timing.tBL

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic sample event; idempotent."""
        if self._timer is None:
            self._last_wall = time.perf_counter()
            self._timer = self.engine.every(
                self.interval_ns, self.sample, priority=3, label="obs-sample"
            )

    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Take one sample now (normally driven by the timer)."""
        controller = self.controller
        stats = controller.stats
        requests = stats.requests_served
        hits = stats.row_hits
        alerts = controller.abo.alert_count
        depth = controller.scheduler.pending()
        d_requests = requests - self._last_requests
        d_hits = hits - self._last_hits
        d_alerts = alerts - self._last_alerts
        events = self.engine.events_fired
        d_events = events - self._last_events
        wall = time.perf_counter()
        d_wall = wall - self._last_wall

        window_ns = self.interval_ns
        series = self.series
        series["t"].append(self.engine.now)
        series["queue_depth"].append(float(depth))
        series["row_hit_rate"].append(d_hits / d_requests if d_requests else 0.0)
        series["bus_occupancy"].append(d_requests * self._tBL / window_ns)
        series["alerts_per_s"].append(d_alerts / (window_ns * 1e-9))
        series["events_per_wall_s"].append(d_events / d_wall if d_wall > 0 else 0.0)

        self._last_requests = requests
        self._last_hits = hits
        self._last_alerts = alerts
        self._last_events = events
        self._last_wall = wall

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-able document: schema + interval + column-major series."""
        return {
            "schema": SERIES_SCHEMA,
            "interval_ns": self.interval_ns,
            "samples": len(self.series["t"]),
            "series": {name: list(values) for name, values in self.series.items()},
        }

    def export(self, path: Any, extra: Optional[Dict[str, Any]] = None) -> Any:
        """Atomically persist the series (plus optional extra sections,
        e.g. the run's counts) next to the run's results."""
        from repro.analysis.storage import atomic_write_json

        payload = self.to_payload()
        if extra:
            payload.update(extra)
        return atomic_write_json(path, payload)
