"""Live campaign progress rendering (``repro campaign --progress``).

A :class:`CampaignProgressRenderer` subscribes to the same lifecycle
events the heartbeat stream records (``run_campaign``'s ``on_event``
hook) and keeps one status line current on **stderr**::

    campaign 7/12 scenarios | 23/36 trials | 1 fault | covert_activity/tprac/nbo256

On a TTY the line rewrites in place (carriage return, repaints
throttled to ~10 Hz with a final paint per scenario); on a non-TTY
stream it degrades to one plain line per completed scenario, so CI
logs stay readable.  Result tables are untouched — they belong to
stdout.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, Optional, TextIO

_MIN_REPAINT_SECONDS = 0.1


class CampaignProgressRenderer:
    """Renders campaign lifecycle events as a live status line."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self.total_scenarios = 0
        self.total_trials = 0
        self.scenarios_done = 0
        self.trials_done = 0
        self.cached = 0
        self.faults = 0
        self.current_label = ""
        self._last_paint = 0.0
        self._line_open = False

    # ------------------------------------------------------------------
    def on_event(self, event: str, fields: Dict[str, Any]) -> None:
        """The ``run_campaign(on_event=...)`` subscriber."""
        if event == "campaign.start":
            self.total_scenarios = int(fields.get("scenarios", 0))
            self.total_trials = self.total_scenarios * int(fields.get("trials", 0))
        elif event == "scenario.cached":
            self.cached += 1
            self.scenarios_done += 1
            self.trials_done += int(fields.get("trials", 0))
            self._paint(force=not self.is_tty)
        elif event == "trial.finish":
            self.trials_done += 1
            self.current_label = str(fields.get("label", self.current_label))
            self._paint()
        elif event == "trial.fault":
            self.faults += 1
        elif event == "scenario.finish":
            self.scenarios_done += 1
            self.current_label = str(fields.get("label", self.current_label))
            self._paint(force=not self.is_tty)
        elif event == "campaign.finish":
            self.close()

    # ------------------------------------------------------------------
    def _status(self) -> str:
        parts = [
            f"campaign {self.scenarios_done}/{self.total_scenarios} scenarios",
            f"{self.trials_done}/{self.total_trials} trials",
        ]
        if self.cached:
            parts.append(f"{self.cached} cached")
        if self.faults:
            parts.append(f"{self.faults} fault{'s' if self.faults != 1 else ''}")
        if self.current_label:
            parts.append(self.current_label)
        return " | ".join(parts)

    def _paint(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and self.is_tty and now - self._last_paint < _MIN_REPAINT_SECONDS:
            return
        self._last_paint = now
        if self.is_tty:
            self.stream.write("\r\x1b[2K" + self._status())
            self._line_open = True
        elif force:
            self.stream.write(self._status() + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Final paint + newline so later output starts on a clean line."""
        if self.is_tty:
            self.stream.write("\r\x1b[2K" + self._status() + "\n")
        else:
            self.stream.write(self._status() + "\n")
        self._line_open = False
        self.stream.flush()
