"""Observability: structured tracing, metrics, and campaign telemetry.

The counts of a run (RFMs by provenance, alerts, refreshes, counter
resets) live in the simulator's own always-on fields:
:class:`~repro.controller.stats.ControllerStats`, the ABO protocol,
the refresh scheduler and the mitigation policy.  This package reads
them and adds three opt-in layers, all following the sanitizer's
zero-overhead-off discipline (results are byte-identical with
telemetry disabled, and the off path adds no per-event work):

* :mod:`repro.obs.trace` — a structured trace recorder behind
  ``SystemConfig(trace=True)`` capturing the served DRAM command
  stream, REF/RFM windows, PRAC counter updates and ABO alert
  lifecycles as typed events, with JSONL and Chrome ``trace_event``
  exporters (loadable in Perfetto / ``chrome://tracing``).
* :mod:`repro.obs.sampler` — a periodic sim-time sampler behind
  ``SystemConfig(metrics=True)`` emitting windowed series (queue
  depth, row-hit rate, bus occupancy, alerts/s, events/s wall-rate);
  :mod:`repro.obs.export` writes it with the run's counts
  (:func:`~repro.obs.export.run_counters`) into one metrics file.
* :mod:`repro.obs.heartbeat` / :mod:`repro.obs.progress` /
  :mod:`repro.obs.report` — campaign progress telemetry: an
  append-only heartbeat JSONL stream, a live TTY renderer behind
  ``repro campaign --progress``, and the ``repro obs`` CLI
  (``obs report`` / ``obs export-trace``).

:mod:`repro.obs.log` is the structured key=value logger the harness
layers use instead of bare ``print`` (enforced by the ``no-print``
repro_lints rule).
"""

from repro.obs.heartbeat import HeartbeatWriter, read_heartbeat
from repro.obs.log import get_logger, set_verbosity
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.trace import TraceEvent, TraceRecorder, chrome_trace, load_trace_jsonl

__all__ = [
    "HeartbeatWriter",
    "TimeSeriesSampler",
    "TraceEvent",
    "TraceRecorder",
    "chrome_trace",
    "get_logger",
    "load_trace_jsonl",
    "read_heartbeat",
    "set_verbosity",
]
